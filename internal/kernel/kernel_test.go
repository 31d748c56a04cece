package kernel_test

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

// The generic fill must agree with a naive per-line reference on random
// 2-D sets: for every horizontal and vertical line, everything strictly
// between the line's extremes is filled, nothing else is.
func TestFillOnceMatchesNaive2D(t *testing.T) {
	m := grid.New(9, 7)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := kernel.NewSet[grid.Coord](m)
		for n := rng.Intn(14); n > 0; n-- {
			s.Add(grid.XY(rng.Intn(m.W), rng.Intn(m.H)))
		}
		got := kernel.FillOnce(s)

		want := s.Clone()
		rows := map[int][]int{}
		cols := map[int][]int{}
		s.Each(func(c grid.Coord) {
			rows[c.Y] = append(rows[c.Y], c.X)
			cols[c.X] = append(cols[c.X], c.Y)
		})
		for y, xs := range rows {
			sort.Ints(xs)
			for x := xs[0]; x <= xs[len(xs)-1]; x++ {
				want.Add(grid.XY(x, y))
			}
		}
		for x, ys := range cols {
			sort.Ints(ys)
			for y := ys[0]; y <= ys[len(ys)-1]; y++ {
				want.Add(grid.XY(x, y))
			}
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: fill %v of %v, want %v", trial, got, s, want)
		}
	}
}

// The 3-D closure cascades: filling one axis's gaps can open a gap on
// another axis, so a single pass is not a fixpoint. This pins the minimal
// cascading example and that Closure reports the extra pass.
func TestClosureCascadesIn3D(t *testing.T) {
	m := grid3.New(4, 4, 4)
	// The X-gap fill at (1,0,0) opens a Y-gap with (1,2,0): the second
	// pass exists only because the first created new line occupancy.
	s := kernel.SetOf(m,
		grid3.XYZ(0, 0, 0), grid3.XYZ(2, 0, 0), // X-gap at (1,0,0)
		grid3.XYZ(1, 1, 1), // connects everything
		grid3.XYZ(1, 2, 0), // Y-gap with the filled (1,0,0)
	)
	closed, passes := kernel.Closure(s)
	if passes < 2 {
		t.Fatalf("closure of %v took %d passes, want a cascade (>= 2)", s, passes)
	}
	if !kernel.IsOrthoConvex(closed) {
		t.Fatalf("closure %v is not orthogonal convex", closed)
	}
	if !closed.ContainsAll(s) {
		t.Fatalf("closure %v misses input nodes", closed)
	}
	// Idempotence: a closure is its own closure.
	again, more := kernel.Closure(closed)
	if more != 0 || !again.Equal(closed) {
		t.Fatalf("closure not idempotent: %d extra passes", more)
	}
}

// Regions under merge adjacency: a 3-D diagonal chain is 26-connected
// (one region) while the same chain spaced by two is not.
func TestRegionsAdjacency3D(t *testing.T) {
	m := grid3.New(8, 8, 8)
	diag := kernel.SetOf(m, grid3.XYZ(1, 1, 1), grid3.XYZ(2, 2, 2), grid3.XYZ(3, 3, 3))
	if got := len(kernel.Regions(diag)); got != 1 {
		t.Fatalf("diagonal chain: %d regions, want 1", got)
	}
	if got := len(kernel.LinkRegions(diag)); got != 3 {
		t.Fatalf("diagonal chain under link adjacency: %d regions, want 3", got)
	}
	spaced := kernel.SetOf(m, grid3.XYZ(1, 1, 1), grid3.XYZ(3, 3, 3))
	if got := len(kernel.Regions(spaced)); got != 2 {
		t.Fatalf("spaced chain: %d regions, want 2", got)
	}
}

// The wire codec: 2-D events marshal to the historical {"op","x","y"}
// bytes, 3-D events carry z, and both reject events missing a field.
func TestEventWireFormat(t *testing.T) {
	e2 := kernel.Event[grid.Coord]{Op: kernel.Add, Node: grid.XY(3, 4)}
	b, err := json.Marshal(e2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"op":"add","x":3,"y":4}` {
		t.Fatalf("2-D wire format %s", b)
	}
	var back kernel.Event[grid.Coord]
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != e2 {
		t.Fatalf("round trip %v != %v", back, e2)
	}

	e3 := kernel.Event[grid3.Coord]{Op: kernel.Clear, Node: grid3.XYZ(1, 2, 3)}
	b3, err := json.Marshal(e3)
	if err != nil {
		t.Fatal(err)
	}
	if string(b3) != `{"op":"clear","x":1,"y":2,"z":3}` {
		t.Fatalf("3-D wire format %s", b3)
	}
	var back3 kernel.Event[grid3.Coord]
	if err := json.Unmarshal(b3, &back3); err != nil {
		t.Fatal(err)
	}
	if back3 != e3 {
		t.Fatalf("round trip %v != %v", back3, e3)
	}

	for _, bad := range []string{
		`{"x":1,"y":2}`,                  // missing op
		`{"op":"boom","x":1,"y":2}`,      // unknown op
		`{"op":"add","x":1}`,             // missing y
		`{"op":"add","x":1,"y":2,"z":3}`, // 3-D event on a 2-D topology
	} {
		var e kernel.Event[grid.Coord]
		if err := json.Unmarshal([]byte(bad), &e); err == nil {
			t.Fatalf("2-D decode of %s should fail", bad)
		}
	}
	var e kernel.Event[grid3.Coord]
	if err := json.Unmarshal([]byte(`{"op":"add","x":1,"y":2}`), &e); err == nil {
		t.Fatal("3-D decode without z should fail")
	}
	if _, err := json.Marshal(kernel.Event[grid.Coord]{Op: kernel.Op(7)}); err == nil {
		t.Fatal("marshal of an invalid op should fail")
	}
}

// The generic engine drives a 3-D topology end to end: merge on add,
// split on clear, deterministic component order, validated snapshots.
func TestEngineGeneric3D(t *testing.T) {
	m := grid3.New(6, 6, 6)
	eng, err := kernel.NewEngine(m, func(_ grid3.Mesh, faults *kernel.Set[grid3.Coord, grid3.Mesh], _ *kernel.Scratch[grid3.Coord, grid3.Mesh]) kernel.BlockModel[grid3.Coord, grid3.Mesh] {
		return boxModel{faults}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two separate faults merge through a third diagonal one, then split
	// again when it clears.
	eng.AddFault(grid3.XYZ(1, 1, 1))
	eng.AddFault(grid3.XYZ(3, 3, 3))
	if got := len(eng.Snapshot().Polygons()); got != 2 {
		t.Fatalf("%d components, want 2", got)
	}
	eng.AddFault(grid3.XYZ(2, 2, 2))
	if got := len(eng.Snapshot().Polygons()); got != 1 {
		t.Fatalf("after merge: %d components, want 1", got)
	}
	eng.ClearFault(grid3.XYZ(2, 2, 2))
	snap := eng.Snapshot()
	if got := len(snap.Polygons()); got != 2 {
		t.Fatalf("after split: %d components, want 2", got)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

type boxModel struct {
	faults *kernel.Set[grid3.Coord, grid3.Mesh]
}

func (boxModel) Grow(grid3.Coord, []*kernel.Set[grid3.Coord, grid3.Mesh], *kernel.Set[grid3.Coord, grid3.Mesh]) {
}
func (boxModel) Shrink(grid3.Coord, *kernel.Set[grid3.Coord, grid3.Mesh], []*kernel.Set[grid3.Coord, grid3.Mesh]) {
}
func (boxModel) Load([]*kernel.Set[grid3.Coord, grid3.Mesh]) {}

// Unsafe covers every polytope with the closure of the whole fault set
// (the union of the components), so Validate's MFP ⊆ FB check holds in
// this toy model.
func (b boxModel) Unsafe() *kernel.Set[grid3.Coord, grid3.Mesh] {
	closed, _ := kernel.Closure(b.faults)
	return closed
}
