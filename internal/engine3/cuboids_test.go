package engine3_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine3"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
)

// verify pins the incremental engine, cuboid model included, against the
// batch construction of the reference fault set (kernel.Snapshot.Verify):
// the snapshot's unsafe set must be byte-identical to mfp3d.Build's
// DisabledCuboid, and its polytopes to Build's.
func verify(t *testing.T, snap *engine3.Snapshot, faults *nodeset3.Set, step int) {
	t.Helper()
	if err := snap.Verify(mfp3d.Reference(faults)); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// TestCuboidsMatchBatchRandom is the per-event differential property test
// of the incremental cuboid model on meshes whose row lengths are not
// multiples of 64, so every FillRange/ClearRange row straddles word
// boundaries unevenly. The schedule is clustered enough to force merges
// and clears existing faults uniformly, which exercises splits and
// last-fault dissolution.
func TestCuboidsMatchBatchRandom(t *testing.T) {
	meshes := []grid3.Mesh{
		grid3.New(13, 7, 5),
		grid3.New(67, 3, 2), // rows span a word boundary with a partial tail
		grid3.New(5, 31, 3),
		grid3.New(9, 9, 9),
	}
	for _, m := range meshes {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			e, err := engine3.New(m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(m.Size())))
			faults := nodeset3.New(m)
			var live []grid3.Coord
			for step := 0; step < 400; step++ {
				var ev engine3.Event
				if len(live) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(live))
					ev = engine3.Event{Op: engine3.Clear, Node: live[i]}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					// Cluster arrivals in a band of the mesh so components
					// collide and merge instead of staying singletons.
					c := grid3.XYZ(rng.Intn(m.W), rng.Intn((m.H+1)/2), rng.Intn((m.D+1)/2))
					if faults.Has(c) {
						continue
					}
					ev = engine3.Event{Op: engine3.Add, Node: c}
					live = append(live, c)
				}
				if _, snap, err := e.Apply([]engine3.Event{ev}); err != nil {
					t.Fatal(err)
				} else {
					kernel.Replay(faults, ev)
					verify(t, snap, faults, step)
					if err := e.CheckOwners(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		})
	}
}

// TestCuboidsForcedSchedules drives the model through the hand-picked
// worst cases of the incremental maintenance: a bridge fault merging three
// components, clearing the bridge to split them again, an interior repair
// that keeps the cuboid (the Shrink shortcut), a fault landing inside an
// existing cuboid (the Grow shortcut), overlapping cuboids of distinct
// components, and clearing a component's last fault.
func TestCuboidsForcedSchedules(t *testing.T) {
	m := grid3.New(13, 7, 5)
	e, err := engine3.New(m)
	if err != nil {
		t.Fatal(err)
	}
	faults := nodeset3.New(m)
	apply := func(step int, op engine3.Op, c grid3.Coord) {
		t.Helper()
		ev := engine3.Event{Op: op, Node: c}
		_, snap, err := e.Apply([]engine3.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		kernel.Replay(faults, ev)
		verify(t, snap, faults, step)
		if err := e.CheckOwners(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	// Three separated components along X on one plane.
	seeds := []grid3.Coord{grid3.XYZ(0, 0, 0), grid3.XYZ(4, 0, 0), grid3.XYZ(8, 0, 0)}
	step := 0
	for _, s := range seeds {
		apply(step, engine3.Add, s)
		step++
	}
	// Stretch the first component so its cuboid has a concavity, then drop
	// a fault inside the cuboid (Grow shortcut: box unchanged).
	apply(step, engine3.Add, grid3.XYZ(2, 2, 2))
	step++
	apply(step, engine3.Add, grid3.XYZ(1, 1, 1)) // inside [0,0,0]..[2,2,2]
	step++
	// Bridge faults merging all three components into one.
	bridges := []grid3.Coord{grid3.XYZ(3, 0, 0), grid3.XYZ(6, 0, 0), grid3.XYZ(7, 0, 0)}
	for _, b := range bridges {
		apply(step, engine3.Add, b)
		step++
	}
	// A separate component whose cuboid overlaps the merged one's.
	apply(step, engine3.Add, grid3.XYZ(5, 3, 1))
	step++
	apply(step, engine3.Add, grid3.XYZ(5, 5, 3))
	step++
	// Clear the bridges: the big component splits while the overlapping
	// component must keep its rows filled.
	for _, b := range bridges {
		apply(step, engine3.Clear, b)
		step++
	}
	// Interior repair: remove the strictly interior fault of the first
	// component; its cuboid (spanned by the corner faults) is unchanged.
	apply(step, engine3.Clear, grid3.XYZ(1, 1, 1))
	step++
	// Dissolve components entirely, last fault included.
	for _, c := range []grid3.Coord{
		grid3.XYZ(2, 2, 2), grid3.XYZ(0, 0, 0), // first component, to nothing
		grid3.XYZ(4, 0, 0), grid3.XYZ(8, 0, 0),
		grid3.XYZ(5, 3, 1), grid3.XYZ(5, 5, 3),
	} {
		apply(step, engine3.Clear, c)
		step++
	}
	if !faults.Empty() {
		t.Fatalf("schedule should end empty, %d faults remain", faults.Len())
	}
	if snap := e.Snapshot(); !snap.Unsafe().Empty() {
		t.Fatalf("empty mesh left %d unsafe nodes", snap.Unsafe().Len())
	}
}

// churn3Batch builds add/clear pairs confined to a cluster of the mesh,
// avoiding the base faults so every run returns the engine to its
// starting state — the 3-D mirror of the 2-D alloc gate's batch.
func churn3Batch(m grid3.Mesh, base func(grid3.Coord) bool, pairs int, seed int64) []engine3.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]engine3.Event, 0, 2*pairs)
	for len(events) < 2*pairs {
		c := grid3.XYZ(8+rng.Intn(6), 8+rng.Intn(6), 8+rng.Intn(6))
		if base(c) {
			continue
		}
		events = append(events,
			engine3.Event{Op: engine3.Add, Node: c},
			engine3.Event{Op: engine3.Clear, Node: c},
		)
	}
	return events
}

// TestApplyBatchAllocsPerEvent gates the 3-D steady-state apply path like
// the 2-D engine's test of the same name: the incremental cuboid model
// must patch its persistent unsafe set without per-event allocations, so a
// coalesced batch amortizes to well under one allocation per event (the
// remainder is the per-publish snapshot freeze).
func TestApplyBatchAllocsPerEvent(t *testing.T) {
	m := grid3.New(20, 20, 20)
	e, err := engine3.New(m)
	if err != nil {
		t.Fatal(err)
	}
	faults := mfp3d.ClusteredFaults(m, 100, 1)
	faults.Each(func(c grid3.Coord) { e.AddFault(c) })

	events := churn3Batch(m, faults.Has, 128, 7)

	apply := func() {
		if _, _, err := e.Apply(events); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the scratch pools and the cuboid map to steady state.
	for i := 0; i < 4; i++ {
		apply()
	}

	perRun := testing.AllocsPerRun(10, apply)
	perEvent := perRun / float64(len(events))
	t.Logf("allocs: %.1f per batch, %.3f per event (%d events)", perRun, perEvent, len(events))
	if perEvent >= 0.5 {
		t.Fatalf("steady-state 3-D apply allocates %.3f allocations/event (%.1f per %d-event batch), want amortized < 0.5",
			perEvent, perRun, len(events))
	}
}

// BenchmarkEngine3ApplyBatch is the 3-D coalesced-batch apply benchmark:
// one Apply (and one snapshot publish) per 256 events.
func BenchmarkEngine3ApplyBatch(b *testing.B) {
	m := grid3.New(20, 20, 20)
	e, err := engine3.New(m)
	if err != nil {
		b.Fatal(err)
	}
	faults := mfp3d.ClusteredFaults(m, 100, 1)
	faults.Each(func(c grid3.Coord) { e.AddFault(c) })
	events := churn3Batch(m, faults.Has, 128, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Apply(events); err != nil {
			b.Fatal(err)
		}
	}
}
