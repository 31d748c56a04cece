package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/obs"
)

// This file pins the engine's bulk build — an add-only batch applied to an
// engine holding no faults — to the per-event path it shortcuts. For each
// fault set the bulk snapshot must equal the one built one event at a
// time, the fault index must be clean, and the bulk-built engine must then
// keep up with per-event churn against the from-scratch constructions,
// which is what shows the owner index and block-model state it leaves
// behind are the ones incremental upkeep expects.

// closures reads the engine_closures_total counter of one dimension.
func closures(t *testing.T, dim string) uint64 {
	t.Helper()
	v, _ := obs.Default.Value("engine_closures_total", dim)
	return uint64(v)
}

// addEvents turns coordinates into arrival events in a shuffled order,
// with some arrivals repeated: duplicates within a bulk batch count once.
func addEvents[C any](rng *rand.Rand, coords []C) []kernel.Event[C] {
	events := make([]kernel.Event[C], 0, len(coords)+len(coords)/4)
	for _, c := range coords {
		events = append(events, kernel.Event[C]{Op: kernel.Add, Node: c})
	}
	for i := 0; i < len(coords)/4; i++ {
		events = append(events, events[rng.Intn(len(coords))])
	}
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	return events
}

// sameSnapshot requires two snapshots to describe the identical state.
func sameSnapshot[C any, T kernel.Topology[C]](t *testing.T, got, want *kernel.Snapshot[C, T]) {
	t.Helper()
	if got.Version() != want.Version() {
		t.Fatalf("version %d, per-event %d", got.Version(), want.Version())
	}
	if !got.Faults().Equal(want.Faults()) {
		t.Fatal("fault sets differ")
	}
	if len(got.Components()) != len(want.Components()) {
		t.Fatalf("%d components, per-event %d", len(got.Components()), len(want.Components()))
	}
	for i := range got.Components() {
		if !got.Components()[i].Equal(want.Components()[i]) {
			t.Fatalf("component %d differs", i)
		}
		if !got.Polygons()[i].Equal(want.Polygons()[i]) {
			t.Fatalf("polygon %d differs", i)
		}
	}
	if !got.Disabled().Equal(want.Disabled()) {
		t.Fatal("disabled sets differ")
	}
	if !got.Unsafe().Equal(want.Unsafe()) {
		t.Fatal("unsafe sets differ")
	}
}

// bulkVersusPerEvent applies events to two fresh engines, in one batch and
// one event per Apply, and requires equal results. It returns the
// bulk-built engine.
func bulkVersusPerEvent[C any, T kernel.Topology[C]](t *testing.T, newEngine func() *kernel.Engine[C, T], dim string, events []kernel.Event[C]) *kernel.Engine[C, T] {
	t.Helper()
	bulk := newEngine()
	before := closures(t, dim)
	applied, snap, err := bulk.Apply(events)
	if err != nil {
		t.Fatal(err)
	}
	// The bulk path closes each component once; the per-event path
	// closes once per arrival.
	if got := closures(t, dim) - before; got != uint64(len(snap.Components())) {
		t.Fatalf("bulk build ran %d closures for %d components", got, len(snap.Components()))
	}
	if err := bulk.CheckOwners(); err != nil {
		t.Fatal(err)
	}
	one := newEngine()
	oneApplied := 0
	for _, ev := range events {
		n, _, err := one.Apply([]kernel.Event[C]{ev})
		if err != nil {
			t.Fatal(err)
		}
		oneApplied += n
	}
	if applied != oneApplied || applied != snap.Faults().Len() {
		t.Fatalf("bulk applied %d, per-event %d, faults %d", applied, oneApplied, snap.Faults().Len())
	}
	sameSnapshot(t, snap, one.Snapshot())
	return bulk
}

// churn applies steps single-event batches to e — arrivals anywhere on
// the mesh and repairs of current faults — checking e after each one.
func churn[C any, T kernel.Topology[C]](t *testing.T, rng *rand.Rand, e *kernel.Engine[C, T], steps int, check func(*kernel.Snapshot[C, T])) {
	t.Helper()
	m := e.Mesh()
	for step := 0; step < steps; step++ {
		ev := kernel.Event[C]{Op: kernel.Add, Node: m.CoordAt(rng.Intn(m.Size()))}
		if faults := e.Snapshot().Faults(); !faults.Empty() && rng.Intn(2) == 0 {
			coords := faults.Coords()
			ev = kernel.Event[C]{Op: kernel.Clear, Node: coords[rng.Intn(len(coords))]}
		}
		_, snap, err := e.Apply([]kernel.Event[C]{ev})
		if err != nil {
			t.Fatal(err)
		}
		check(snap)
		if err := e.CheckOwners(); err != nil {
			t.Fatalf("step %d (%v): %v", step, ev, err)
		}
	}
}

// randomCoords draws each node of m with probability p.
func randomCoords[C any, T kernel.Topology[C]](rng *rand.Rand, m T, p float64) []C {
	var out []C
	for i := 0; i < m.Size(); i++ {
		if rng.Float64() < p {
			out = append(out, m.CoordAt(i))
		}
	}
	return out
}

// verify compares a snapshot with rebuild, the from-scratch construction
// of its fault set (core.Reference in 2-D, mfp3d.Reference in 3-D).
func verify[C any, T kernel.Topology[C]](t *testing.T, snap *kernel.Snapshot[C, T], rebuild func(*kernel.Set[C, T]) kernel.Reference[C, T]) {
	t.Helper()
	if err := snap.Verify(rebuild(snap.Faults())); err != nil {
		t.Fatalf("%v (faults %v)", err, snap.Faults())
	}
}

func TestBulkBuildMatchesPerEvent2D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name   string
		m      grid.Mesh
		coords []grid.Coord
	}{
		{"row 1x40", grid.New(1, 40), randomCoords[grid.Coord](rng, grid.New(1, 40), 0.5)},
		{"column 40x1", grid.New(40, 1), randomCoords[grid.Coord](rng, grid.New(40, 1), 0.5)},
		{"dense 16x16", grid.New(16, 16), randomCoords[grid.Coord](rng, grid.New(16, 16), 0.7)},
		{"full 6x6", grid.New(6, 6), randomCoords[grid.Coord](rng, grid.New(6, 6), 1)},
		{"sparse 70x9", grid.New(70, 9), randomCoords[grid.Coord](rng, grid.New(70, 9), 0.1)},
		{"clustered 40x40", grid.New(40, 40), fault.NewInjector(grid.New(40, 40), fault.Clustered, 5).Inject(160).Coords()},
	}
	border := grid.New(12, 10)
	var edge []grid.Coord
	for i := 0; i < border.Size(); i++ {
		if c := border.CoordAt(i); (c.X == 0 || c.Y == 0 || c.X == border.W-1 || c.Y == border.H-1) && rng.Intn(3) > 0 {
			edge = append(edge, c)
		}
	}
	cases = append(cases, struct {
		name   string
		m      grid.Mesh
		coords []grid.Coord
	}{"border 12x10", border, edge})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := bulkVersusPerEvent(t, func() *engine.Engine {
				e, err := engine.New(tc.m)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, "2", addEvents(rng, tc.coords))
			verify(t, e.Snapshot(), core.Reference)
			churn(t, rng, e, 200, func(s *engine.Snapshot) { verify(t, s, core.Reference) })
		})
	}
}

func TestBulkBuildMatchesPerEvent3D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name   string
		m      grid3.Mesh
		coords []grid3.Coord
	}{
		{"line 1x1x30", grid3.New(1, 1, 30), randomCoords[grid3.Coord](rng, grid3.New(1, 1, 30), 0.5)},
		{"dense 6x6x6", grid3.New(6, 6, 6), randomCoords[grid3.Coord](rng, grid3.New(6, 6, 6), 0.6)},
		{"sparse 67x3x2", grid3.New(67, 3, 2), randomCoords[grid3.Coord](rng, grid3.New(67, 3, 2), 0.15)},
		{"clustered 9x9x9", grid3.New(9, 9, 9), mfp3d.ClusteredFaults(grid3.New(9, 9, 9), 90, 2).Coords()},
		// The kernel tests' cascading closure: one fill pass opens a gap
		// along another axis.
		{"cascade 4x4x4", grid3.New(4, 4, 4), []grid3.Coord{
			grid3.XYZ(0, 0, 0), grid3.XYZ(2, 0, 0), grid3.XYZ(1, 1, 1), grid3.XYZ(1, 2, 0),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := bulkVersusPerEvent(t, func() *engine3.Engine {
				e, err := engine3.New(tc.m)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, "3", addEvents(rng, tc.coords))
			verify(t, e.Snapshot(), mfp3d.Reference)
			churn(t, rng, e, 200, func(s *engine3.Snapshot) { verify(t, s, mfp3d.Reference) })
		})
	}
}

// Only an add-only batch on an engine holding no faults takes the bulk
// path: a mixed batch on an empty engine, and an add-only batch on a
// non-empty one, close once per state-changing arrival.
func TestBulkBuildOnlyFromEmptyAddOnly(t *testing.T) {
	m := grid.New(10, 10)
	row := []engine.Event{
		{Op: engine.Add, Node: grid.XY(1, 1)}, {Op: engine.Add, Node: grid.XY(2, 1)},
		{Op: engine.Add, Node: grid.XY(3, 1)}, {Op: engine.Add, Node: grid.XY(4, 1)},
	}
	apply := func(e *engine.Engine, events []engine.Event) uint64 {
		t.Helper()
		before := closures(t, "2")
		if _, _, err := e.Apply(events); err != nil {
			t.Fatal(err)
		}
		return closures(t, "2") - before
	}

	e, _ := engine.New(m)
	if got := apply(e, row); got != 1 {
		t.Fatalf("add-only batch on an empty engine: %d closures, want 1 (bulk)", got)
	}
	mixed, _ := engine.New(m)
	// The clear of a healthy node changes nothing but keeps the batch off
	// the bulk path.
	if got := apply(mixed, append(append([]engine.Event(nil), row...), engine.Event{Op: engine.Clear, Node: grid.XY(8, 8)})); got != 4 {
		t.Fatalf("mixed batch on an empty engine: %d closures, want 4 (per event)", got)
	}
	sameSnapshot(t, mixed.Snapshot(), e.Snapshot())
	more := []engine.Event{{Op: engine.Add, Node: grid.XY(1, 5)}, {Op: engine.Add, Node: grid.XY(2, 5)}}
	if got := apply(e, more); got != 2 {
		t.Fatalf("add-only batch on a non-empty engine: %d closures, want 2 (per event)", got)
	}
	// Cleared back to empty, the engine takes the bulk path again.
	var clears []engine.Event
	e.Snapshot().Faults().Each(func(c grid.Coord) { clears = append(clears, engine.Event{Op: engine.Clear, Node: c}) })
	apply(e, clears)
	if got := apply(e, row); got != 1 {
		t.Fatalf("add-only batch on an emptied engine: %d closures, want 1 (bulk)", got)
	}
	if err := e.CheckOwners(); err != nil {
		t.Fatal(err)
	}
	verify(t, e.Snapshot(), core.Reference)
}
