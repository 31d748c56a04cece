package routing

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

// pairSet returns n seeded source/destination pairs over the mesh.
func pairSet(m grid.Mesh, seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{
			Src: grid.XY(rng.Intn(m.W), rng.Intn(m.H)),
			Dst: grid.XY(rng.Intn(m.W), rng.Intn(m.H)),
		}
	}
	return qs
}

// checkSuccessor verifies a planner built from a predecessor against both
// from-scratch constructions of the same snapshot: NewPlanner (the same
// polygons, merged from nothing) and NewPlannerForBlocked (a re-flood of
// the disabled union).
func checkSuccessor(t *testing.T, what string, next *Planner, snap *engine.Snapshot, queries []Query) {
	t.Helper()
	if err := next.Verify(NewPlanner(snap), queries); err != nil {
		t.Fatalf("%s: against NewPlanner: %v", what, err)
	}
	if err := next.Verify(NewPlannerForBlocked(snap.Mesh(), snap.Disabled()), queries); err != nil {
		t.Fatalf("%s: against NewPlannerForBlocked: %v", what, err)
	}
}

// TestNextPlannerMatchesScratchUnderChurn is the differential gate of the
// incremental construction: a seeded add/clear stream on a mesh dense
// enough (clustered faults near 10%) that closures of separate components
// touch and part again. After every batch the planner built from the
// previous batch's planner must equal both from-scratch constructions,
// region for region and route for route.
func TestNextPlannerMatchesScratchUnderChurn(t *testing.T) {
	m := grid.New(32, 32)
	target := m.Size() / 10
	queries := pairSet(m, 7, 160)
	var joins, splits int
	var reused uint64
	for seed := int64(1); seed <= 4; seed++ {
		e, err := engine.New(m)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := e.Load(fault.NewInjector(m, fault.Clustered, seed).Inject(target))
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlanner(snap)
		rng := rand.New(rand.NewSource(seed))
		shared := 0 // polygons sharing a region with another
		for batch := 0; batch < 300; batch++ {
			if _, snap, err = e.Apply(churnBatch(rng, snap.Faults(), target)); err != nil {
				t.Fatal(err)
			}
			before := metricPlannerRegionsReused.Value()
			p = NewPlannerFrom(p, snap)
			reused += metricPlannerRegionsReused.Value() - before
			checkSuccessor(t, fmt.Sprintf("seed %d batch %d", seed, batch), p, snap, queries)
			now := len(snap.Polygons()) - len(p.Regions())
			if now > shared {
				joins++
			} else if now < shared {
				splits++
			}
			shared = now
		}
	}
	// The stream must reach the cases the diff exists for.
	t.Logf("%d joins, %d splits, %d reused", joins, splits, reused)
	if joins == 0 || splits == 0 || reused == 0 {
		t.Fatalf("the stream is too sparse: %d joins, %d splits, %d regions reused", joins, splits, reused)
	}
}

// churnBatch draws one to four events around the target fault count:
// clears of existing faults, and adds near them, half of them two cells
// away so they start a component of their own whose closure may touch
// its neighbour's.
func churnBatch(rng *rand.Rand, faults *nodeset.Set, target int) []engine.Event {
	m := faults.Mesh()
	cs := faults.Coords()
	var evs []engine.Event
	for k := 1 + rng.Intn(4); k > 0 && len(cs) > 0; k-- {
		c := cs[rng.Intn(len(cs))]
		if rng.Intn(2*target) < len(cs) {
			evs = append(evs, engine.Event{Op: engine.Clear, Node: c})
			continue
		}
		dx, dy := rng.Intn(5)-2, rng.Intn(5)-2
		switch rng.Intn(4) {
		case 0:
			dx = 4*rng.Intn(2) - 2
		case 1:
			dy = 4*rng.Intn(2) - 2
		}
		if n := grid.XY(c.X+dx, c.Y+dy); m.Contains(n) {
			evs = append(evs, engine.Event{Op: engine.Add, Node: n})
		}
	}
	return evs
}

// bridgeFaults is two orthogonal-convex arcs, mirror images whose closures
// fill columns 5 and 7 (rows 6..8) and leave column 6 free between them:
// two components, two regions. A fault at (6,7) is 8-adjacent to no fault
// but touches both closures, so it bridges the two regions into one
// without merging any components.
func bridgeFaults(m grid.Mesh) *nodeset.Set {
	return nodeset.FromCoords(m,
		grid.XY(5, 5), grid.XY(4, 6), grid.XY(4, 7), grid.XY(4, 8), grid.XY(5, 9),
		grid.XY(7, 5), grid.XY(8, 6), grid.XY(8, 7), grid.XY(8, 8), grid.XY(7, 9),
		grid.XY(12, 12), // a bystander region every successor keeps
	)
}

// TestNextPlannerPinnedCases pins the incremental construction's four
// shapes of predecessor: an add that bridges two regions, a clear that
// splits the bridged region again, a successor built from the planner of
// a newer version, and one built from the planner of an engine that was
// dropped (as eviction drops one) and rebuilt.
func TestNextPlannerPinnedCases(t *testing.T) {
	m := grid.New(16, 16)
	queries := pairSet(m, 3, 400)
	e, err := engine.New(m)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Load(bridgeFaults(m))
	if err != nil {
		t.Fatal(err)
	}
	p0 := NewPlanner(base)
	if len(p0.Regions()) != 3 {
		t.Fatalf("fixture: want 3 regions, got %d", len(p0.Regions()))
	}

	t.Run("add bridges two regions", func(t *testing.T) {
		_, snap, err := e.Apply([]engine.Event{{Op: engine.Add, Node: grid.XY(6, 7)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Polygons()) != 4 {
			t.Fatalf("the bridge must be its own component: %d components", len(snap.Polygons()))
		}
		before := metricPlannerRegionsReused.Value()
		p1 := NewPlannerFrom(p0, snap)
		if got := metricPlannerRegionsReused.Value() - before; got != 1 {
			t.Fatalf("reused %d regions, want the bystander only", got)
		}
		if len(p1.Regions()) != 2 {
			t.Fatalf("want 2 regions after the bridge, got %d", len(p1.Regions()))
		}
		checkSuccessor(t, "bridge", p1, snap, queries)

		t.Run("clear splits the merged region", func(t *testing.T) {
			_, snap2, err := e.Apply([]engine.Event{{Op: engine.Clear, Node: grid.XY(6, 7)}})
			if err != nil {
				t.Fatal(err)
			}
			p2 := NewPlannerFrom(p1, snap2)
			if len(p2.Regions()) != 3 {
				t.Fatalf("want 3 regions after the split, got %d", len(p2.Regions()))
			}
			checkSuccessor(t, "split", p2, snap2, queries)
		})

		t.Run("predecessor of a newer version", func(t *testing.T) {
			// p1 is newer than base: building base's planner from it
			// un-bridges, reusing the bystander.
			checkSuccessor(t, "older from newer", NewPlannerFrom(p1, base), base, queries)
		})
	})

	t.Run("predecessor of a dropped engine", func(t *testing.T) {
		// A rebuilt engine publishes new sets for the same faults, so no
		// pointer matches and the successor is a full build.
		e2, err := engine.New(m)
		if err != nil {
			t.Fatal(err)
		}
		faults := bridgeFaults(m)
		faults.Add(grid.XY(2, 13))
		snap, err := e2.Load(faults)
		if err != nil {
			t.Fatal(err)
		}
		before := metricPlannerRegionsReused.Value()
		p := NewPlannerFrom(p0, snap)
		if got := metricPlannerRegionsReused.Value() - before; got != 0 {
			t.Fatalf("reused %d regions across engines", got)
		}
		checkSuccessor(t, "dropped engine", p, snap, queries)
	})
}

// TestNextPlannerReleasesPredecessor: a successor shares its predecessor's
// unchanged regions and rings but not the predecessor itself, so a chain
// of incremental builds pins one planner, not every version since the
// last full build.
func TestNextPlannerReleasesPredecessor(t *testing.T) {
	m := grid.New(16, 16)
	e, err := engine.New(m)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Load(bridgeFaults(m))
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	prev := NewPlanner(snap)
	runtime.SetFinalizer(prev, func(*Planner) { close(freed) })
	_, snap, err = e.Apply([]engine.Event{{Op: engine.Add, Node: grid.XY(6, 7)}})
	if err != nil {
		t.Fatal(err)
	}
	next := NewPlannerFrom(prev, snap)
	prev = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(next)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the predecessor is still reachable from its successor")
}
