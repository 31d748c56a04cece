package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/status"
)

// verify asserts the snapshot is identical to a from-scratch
// core.Construct on the same fault set (kernel.Snapshot.Verify). This is
// the engine's correctness contract.
func verify(t *testing.T, snap *engine.Snapshot) {
	t.Helper()
	if err := snap.Verify(core.Reference(snap.Faults())); err != nil {
		t.Fatalf("%v (faults %v)", err, snap.Faults())
	}
}

// checkEngine is verify on the engine's current snapshot
// plus the engine's fault-index invariants: exactly one key per fault, and
// every fault's owner component contains it.
func checkEngine(t *testing.T, e *engine.Engine) {
	t.Helper()
	verify(t, e.Snapshot())
	if err := e.CheckOwners(); err != nil {
		t.Fatal(err)
	}
}

func TestTorusRejected(t *testing.T) {
	if _, err := engine.New(grid.NewTorus(8, 8)); err == nil {
		t.Fatal("torus accepted")
	}
	if _, err := engine.New(grid.Mesh{}); err == nil {
		t.Fatal("empty mesh accepted")
	}
}

func TestEmptyEngine(t *testing.T) {
	e, err := engine.New(grid.New(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Version() != 0 || !snap.Faults().Empty() || len(snap.Polygons()) != 0 {
		t.Fatalf("fresh engine not empty: %v", snap)
	}
	if snap.MeanPolygonSize() != 0 || snap.DisabledNonFaulty() != 0 {
		t.Fatal("fresh engine has non-zero metrics")
	}
	verify(t, snap)
}

// The diagonal staircase of the quickstart example, grown one fault at a
// time and torn down again, checked against a rebuild at every step.
func TestStaircaseUpAndDown(t *testing.T) {
	e, _ := engine.New(grid.New(12, 12))
	steps := []grid.Coord{grid.XY(4, 4), grid.XY(5, 5), grid.XY(6, 6), grid.XY(7, 7)}
	for _, c := range steps {
		if !e.AddFault(c) {
			t.Fatalf("add %v reported no change", c)
		}
		checkEngine(t, e)
	}
	if n := len(e.Snapshot().Polygons()); n != 1 {
		t.Fatalf("staircase formed %d components, want 1", n)
	}
	for _, c := range steps {
		if !e.ClearFault(c) {
			t.Fatalf("clear %v reported no change", c)
		}
		checkEngine(t, e)
	}
	if !e.Snapshot().Faults().Empty() {
		t.Fatal("faults remain after tearing everything down")
	}
}

// One arrival can merge more than two components: four isolated faults
// around (3,3) become a single component the moment (3,3) fails.
func TestAddMergesFourComponents(t *testing.T) {
	e, _ := engine.New(grid.New(10, 10))
	for _, c := range []grid.Coord{grid.XY(2, 2), grid.XY(4, 2), grid.XY(2, 4), grid.XY(4, 4)} {
		e.AddFault(c)
	}
	if n := len(e.Snapshot().Polygons()); n != 4 {
		t.Fatalf("%d components before the merge, want 4", n)
	}
	checkEngine(t, e)

	e.AddFault(grid.XY(3, 3))
	snap := e.Snapshot()
	if n := len(snap.Polygons()); n != 1 {
		t.Fatalf("%d components after the merge, want 1", n)
	}
	verify(t, snap)

	// And the repair splits it back apart.
	e.ClearFault(grid.XY(3, 3))
	snap = e.Snapshot()
	if n := len(snap.Polygons()); n != 4 {
		t.Fatalf("%d components after the split, want 4", n)
	}
	verify(t, snap)
}

// Clearing the last fault of a component must dissolve the component
// entirely, including one that was covered by another component's polygon.
func TestClearLastFaultOfComponent(t *testing.T) {
	e, _ := engine.New(grid.New(10, 10))
	e.AddFault(grid.XY(5, 5))
	e.ClearFault(grid.XY(5, 5))
	snap := e.Snapshot()
	if len(snap.Polygons()) != 0 || !snap.Disabled().Empty() || !snap.Unsafe().Empty() {
		t.Fatalf("state remains after clearing the only fault: %v", snap.Disabled())
	}
	verify(t, snap)

	// A lone fault inside the concave region of a staircase: its polygon
	// overlaps the staircase's, and dissolving it must not disturb the
	// staircase.
	for _, c := range []grid.Coord{grid.XY(2, 2), grid.XY(3, 3), grid.XY(4, 4), grid.XY(3, 2)} {
		e.AddFault(c)
	}
	checkEngine(t, e)
	e.ClearFault(grid.XY(3, 2))
	checkEngine(t, e)
}

// Polygons of distinct components can overlap: an isolated fault inside
// a U's cavity has its own polygon, lying inside the U's. Clearing it
// takes its polygon out of the disabled union, and the union must get the
// node back from the U's polygon, which still covers it.
func TestClearFaultInsideAnotherPolygon(t *testing.T) {
	m := grid.New(5, 4)
	e, _ := engine.New(m)
	var u []engine.Event
	for i := 0; i < m.Size(); i++ {
		if c := m.CoordAt(i); c.X == 0 || c.X == 4 || c.Y == 0 {
			u = append(u, engine.Event{Op: engine.Add, Node: c})
		}
	}
	if _, _, err := e.Apply(u); err != nil {
		t.Fatal(err)
	}
	inner := grid.XY(2, 2)
	e.AddFault(inner)
	if n := len(e.Snapshot().Polygons()); n != 2 {
		t.Fatalf("%d components, want the U and the inner fault", n)
	}
	checkEngine(t, e)
	e.ClearFault(inner)
	checkEngine(t, e)
	if got := e.Snapshot().Class(inner); got != status.Disabled {
		t.Fatalf("cleared node inside the U's polygon is %v, want disabled", got)
	}
}

func TestDuplicateEvents(t *testing.T) {
	e, _ := engine.New(grid.New(8, 8))
	e.AddFault(grid.XY(3, 3))
	v := e.Snapshot().Version()

	if e.AddFault(grid.XY(3, 3)) {
		t.Fatal("duplicate add reported a change")
	}
	if e.ClearFault(grid.XY(6, 6)) {
		t.Fatal("clear of a non-faulty node reported a change")
	}
	if got := e.Snapshot().Version(); got != v {
		t.Fatalf("no-op events bumped the version: %d -> %d", v, got)
	}
	checkEngine(t, e)

	// A batch of pure no-ops applies zero events but still returns the
	// current snapshot.
	n, snap, err := e.Apply([]engine.Event{
		{Op: engine.Add, Node: grid.XY(3, 3)},
		{Op: engine.Clear, Node: grid.XY(0, 0)},
	})
	if err != nil || n != 0 {
		t.Fatalf("no-op batch: applied %d, err %v", n, err)
	}
	if snap == nil || snap.Version() != v {
		t.Fatalf("no-op batch returned snapshot %v, want the current one", snap)
	}
}

// Faults on mesh boundaries exercise the missing-neighbour edges of both
// the closure and the scheme-1 rule.
func TestBoundaryFaults(t *testing.T) {
	m := grid.New(9, 9)
	e, _ := engine.New(m)
	border := []grid.Coord{
		grid.XY(0, 0), grid.XY(8, 8), grid.XY(0, 8), grid.XY(8, 0), // corners
		grid.XY(4, 0), grid.XY(0, 4), grid.XY(8, 4), grid.XY(4, 8), // edge midpoints
		grid.XY(1, 0), grid.XY(0, 1), // adjacent to a corner, forms an L
	}
	for _, c := range border {
		e.AddFault(c)
		checkEngine(t, e)
	}
	for _, c := range border {
		e.ClearFault(c)
		checkEngine(t, e)
	}
}

func TestApplyRejectsBadEvents(t *testing.T) {
	e, _ := engine.New(grid.New(8, 8))
	events := []engine.Event{
		{Op: engine.Add, Node: grid.XY(2, 2)},
		{Op: engine.Add, Node: grid.XY(9, 9)}, // outside
	}
	if n, _, err := e.Apply(events); err == nil || n != 0 {
		t.Fatalf("out-of-mesh batch: applied %d, err %v", n, err)
	}
	if !e.Snapshot().Faults().Empty() {
		t.Fatal("failed batch mutated state")
	}
	if _, _, err := e.Apply([]engine.Event{{Op: engine.Op(9), Node: grid.XY(1, 1)}}); err == nil {
		t.Fatal("invalid op accepted")
	}
}

// Old snapshots must survive later churn unchanged, and polygons of
// components the churn never touched must be shared between snapshots, not
// recomputed or copied.
func TestSnapshotsAreImmutableAndShared(t *testing.T) {
	e, _ := engine.New(grid.New(20, 20))
	e.AddFault(grid.XY(2, 2))
	e.AddFault(grid.XY(3, 3)) // component A
	e.AddFault(grid.XY(15, 15))
	before := e.Snapshot()
	beforeFaults := before.Faults().Clone()
	polyA := before.Polygons()[0]

	e.AddFault(grid.XY(16, 16)) // grows the far component only
	e.ClearFault(grid.XY(15, 15))
	after := e.Snapshot()

	if !before.Faults().Equal(beforeFaults) || len(before.Polygons()) != 2 {
		t.Fatal("earlier snapshot changed under churn")
	}
	if after.Polygons()[0] != polyA {
		t.Fatal("untouched component's polygon was not shared between snapshots")
	}
	verify(t, before)
	verify(t, after)
}

// A random add/clear storm on a small mesh, cross-checked against a full
// rebuild after every event. Complements the paper-scale churn test in
// internal/experiments with many more, denser events.
func TestRandomChurnDifferential(t *testing.T) {
	m := grid.New(24, 24)
	e, _ := engine.New(m)
	rng := rand.New(rand.NewSource(42))
	live := []grid.Coord{}
	for i := 0; i < 400; i++ {
		if len(live) == 0 || rng.Intn(100) < 55 {
			c := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			if e.AddFault(c) {
				live = append(live, c)
			}
		} else {
			j := rng.Intn(len(live))
			if !e.ClearFault(live[j]) {
				t.Fatalf("clear of live fault %v reported no change", live[j])
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		checkEngine(t, e)
	}
}

// Replaying a fault set event-by-event must land on the exact state of a
// batch build, for both fault distribution models.
func TestReplayMatchesBatchBuild(t *testing.T) {
	m := grid.New(40, 40)
	for _, model := range []fault.Model{fault.Random, fault.Clustered} {
		faults := fault.NewInjector(m, model, 5).Inject(80)
		e, _ := engine.New(m)
		var events []engine.Event
		faults.Each(func(c grid.Coord) { events = append(events, engine.Event{Op: engine.Add, Node: c}) })
		n, snap, err := e.Apply(events)
		if err != nil || n != len(events) {
			t.Fatalf("%v: applied %d/%d, err %v", model, n, len(events), err)
		}
		if !snap.Faults().Equal(faults) {
			t.Fatalf("%v: replayed fault set differs", model)
		}
		verify(t, snap)
	}
}

// Readers must always observe a consistent snapshot while writers churn.
// Run under -race (CI does), this also proves the locking discipline.
func TestConcurrentReadersDuringChurn(t *testing.T) {
	m := grid.New(30, 30)
	e, _ := engine.New(m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := e.Snapshot()
				// Internal consistency: counts derived from different sets
				// of the same snapshot must agree.
				if snap.DisabledNonFaulty() < 0 {
					t.Error("snapshot disables fewer nodes than there are faults")
					return
				}
				if !snap.Unsafe().ContainsAll(snap.Disabled()) {
					t.Error("snapshot violates MFP within FB")
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		c := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if rng.Intn(2) == 0 {
			e.AddFault(c)
		} else {
			e.ClearFault(c)
		}
	}
	close(stop)
	wg.Wait()
	checkEngine(t, e)
}

func TestSnapshotSetsAreIndependentOfEngine(t *testing.T) {
	e, _ := engine.New(grid.New(10, 10))
	e.AddFault(grid.XY(1, 1))
	snap := e.Snapshot()
	faults := snap.Faults()
	e.AddFault(grid.XY(8, 8))
	if faults.Len() != 1 || !faults.Has(grid.XY(1, 1)) {
		t.Fatal("snapshot fault set aliases the engine's mutable set")
	}
	if want := nodeset.FromCoords(e.Mesh(), grid.XY(1, 1)); !snap.Disabled().Equal(want) {
		t.Fatal("snapshot disabled set changed under churn")
	}
}
