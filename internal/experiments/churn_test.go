package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/grid3"
	"repro/internal/kernel"
)

// checkSequence requires the stream to be deterministic, Faults+Events
// long, and effective at every event: adds hit healthy nodes, clears hit
// live faults, and the warm-up prefix ends exactly at the steady-state
// target.
func checkSequence[C comparable, T kernel.Topology[C]](t *testing.T, c Churn[C, T]) {
	t.Helper()
	a, b := c.Sequence(), c.Sequence()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != c.Faults+c.Events {
		t.Fatalf("%d events, want %d", len(a), c.Faults+c.Events)
	}
	faults := kernel.NewSet[C](c.Mesh)
	for i, ev := range a {
		switch ev.Op {
		case kernel.Add:
			if !faults.Add(ev.Node) {
				t.Fatalf("event %d: add of already-faulty %v", i, ev.Node)
			}
		case kernel.Clear:
			if !faults.Remove(ev.Node) {
				t.Fatalf("event %d: clear of healthy %v", i, ev.Node)
			}
			if i < c.Faults {
				t.Fatalf("event %d: clear inside the warm-up prefix", i)
			}
		}
		if i == c.Faults-1 && faults.Len() != c.Faults {
			t.Fatalf("warm-up ends with %d faults, want %d", faults.Len(), c.Faults)
		}
	}
}

func TestChurnSequenceDeterministicAndValid(t *testing.T) {
	checkSequence(t, Churn2D(30, 20, 150, 9))
	checkSequence(t, Churn3D(8, 12, 40, 3))
}

func TestChurnName(t *testing.T) {
	if got, want := DefaultChurn().Name(), "churn/mesh100/faults100/events200/seed1"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if got, want := DefaultChurn3At(12).Name(), "churn3d/mesh12/faults20/events200/seed1"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

// perEventDifferential replays the scenario one event per Apply and
// verifies every snapshot against a from-scratch construction of the same
// fault set (faults, components, polygons, disabled and unsafe sets,
// every node's class) and the engine's indexes.
func perEventDifferential[C any, T kernel.Topology[C]](t *testing.T, c Churn[C, T], events []kernel.Event[C]) {
	t.Helper()
	eng, err := c.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	faults := kernel.NewSet[C](c.Mesh)
	for i, ev := range events {
		kernel.Replay(faults, ev)
		applied, snap, err := eng.Apply(events[i : i+1])
		if err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		if applied != 1 {
			t.Fatalf("event %d (%v): applied %d, want 1", i, ev, applied)
		}
		if err := snap.Verify(c.dim.rebuild(faults)); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		if err := eng.CheckOwners(); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
	}
}

// The acceptance test of the incremental engine at paper scale: after
// every event of the default ≥200-event churn sequence on the 100×100
// mesh, the engine snapshot is identical to a from-scratch core.Construct
// on the same fault set.
func TestChurnDifferentialPaperScale(t *testing.T) {
	c := DefaultChurn()
	if c.Events < 200 {
		t.Fatalf("churn sequence has %d events, want >= 200", c.Events)
	}
	perEventDifferential(t, c, c.Sequence())
}

// The 3-D analogue: a seeded churn on a 12×12×12 mesh with every snapshot
// verified against a batch mfp3d.Build, for 200 post-warm-up events.
func TestChurn3DifferentialPerEvent(t *testing.T) {
	c := Churn3D(12, 20, 200, 7)
	perEventDifferential(t, c, c.Sequence())
}

// The same per-event pin at the 64³ benchmark scale of the incremental
// cuboid block model, with a schedule that actually exercises it: arrivals
// are clustered into a 16³ corner so components collide and merge (the
// uniform Sequence at this scale would produce near-only singletons), and
// a third of the steps clear a live fault, splitting components and
// dissolving them entirely.
func TestChurn3DifferentialPerEvent64(t *testing.T) {
	c := DefaultChurn3At(64)
	rng := rand.New(rand.NewSource(64))
	faults := kernel.NewSet[grid3.Coord](c.Mesh)
	var live []grid3.Coord
	var events []kernel.Event[grid3.Coord]
	for step := 0; step < 150; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			events = append(events, kernel.Event[grid3.Coord]{Op: kernel.Clear, Node: live[i]})
			faults.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		var n grid3.Coord
		if rng.Intn(8) == 0 {
			// An occasional isolated fault far from the cluster keeps
			// multiple components (with disjoint cuboids) live.
			n = grid3.XYZ(rng.Intn(64), rng.Intn(64), rng.Intn(64))
		} else {
			n = grid3.XYZ(rng.Intn(16), rng.Intn(16), rng.Intn(16))
		}
		if faults.Add(n) {
			events = append(events, kernel.Event[grid3.Coord]{Op: kernel.Add, Node: n})
			live = append(live, n)
		}
	}
	perEventDifferential(t, c, events)
}

// Both replay strategies land on the same final state.
func TestChurnIncrementalMatchesRebuild(t *testing.T) {
	c := Churn2D(40, 30, 60, 3)
	snap, err := c.Incremental()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(c.Rebuild()); err != nil {
		t.Fatal(err)
	}
}

// The same for the default 3-D benchmark scenario (the cheap whole-run
// check the -churn3d report uses).
func TestChurn3DefaultScenarioDiff(t *testing.T) {
	c := DefaultChurn3At(12)
	snap, err := c.Incremental()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(c.Rebuild()); err != nil {
		t.Fatal(err)
	}
}

// The 128³ stretch scale, where a per-event rebuild is out of reach: the
// incremental engine replays the whole benchmark scenario and the final
// snapshot is checked against one batch build (the same check the -churn3d
// report runs there).
func TestChurn3BatchBuildDiff128(t *testing.T) {
	c := DefaultChurn3At(128)
	if c.RebuildFeasible() {
		t.Fatalf("%s should be past the rebuild feasibility bound", c.Name())
	}
	snap, err := c.Incremental()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Verify(c.BatchBuild()); err != nil {
		t.Fatal(err)
	}
}

// A sequence on a mesh the warm-up saturates completely must terminate:
// arrivals are impossible on a full mesh and the generator has to force
// repairs instead of rejection-sampling forever.
func TestChurnSequenceOnSaturatedMesh(t *testing.T) {
	c := Churn2D(3, 9, 10, 2)
	seq := c.Sequence()
	if len(seq) != c.Faults+c.Events {
		t.Fatalf("%d events, want %d", len(seq), c.Faults+c.Events)
	}
	if seq[c.Faults].Op != kernel.Clear {
		t.Fatalf("first churn step on a saturated mesh is %v, want a clear", seq[c.Faults])
	}
}

// Clearing every fault returns the engine to the empty state with no
// polytopes and an empty cuboid unsafe set.
func TestChurn3DrainToEmpty(t *testing.T) {
	c := Churn3D(8, 12, 40, 3)
	eng, err := c.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Apply(c.Sequence()); err != nil {
		t.Fatal(err)
	}
	var clears []kernel.Event[grid3.Coord]
	eng.Snapshot().Faults().Each(func(n grid3.Coord) {
		clears = append(clears, kernel.Event[grid3.Coord]{Op: kernel.Clear, Node: n})
	})
	_, snap, err := eng.Apply(clears)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Faults().Empty() || len(snap.Polygons()) != 0 ||
		!snap.Disabled().Empty() || !snap.Unsafe().Empty() {
		t.Fatalf("drained engine not empty: faults %d, polytopes %d, disabled %d, unsafe %d",
			snap.Faults().Len(), len(snap.Polygons()), snap.Disabled().Len(), snap.Unsafe().Len())
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}
