package component

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

func TestFindBasic(t *testing.T) {
	m := grid.New(10, 10)
	faults := nodeset.FromCoords(m,
		grid.XY(1, 1), grid.XY(2, 2), // one diagonal component
		grid.XY(7, 7), // isolated
	)
	comps := Find(faults)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if comps[0].Nodes.Len() != 2 || comps[1].Nodes.Len() != 1 {
		t.Fatalf("component sizes wrong: %v, %v", comps[0].Nodes, comps[1].Nodes)
	}
	want := grid.Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	if comps[0].Bounds != want {
		t.Fatalf("bounds = %v, want %v", comps[0].Bounds, want)
	}
	if comps[0].VirtualBlock() != want {
		t.Fatal("VirtualBlock should equal Bounds")
	}
}

func TestFindEmpty(t *testing.T) {
	m := grid.New(5, 5)
	if got := Find(nodeset.New(m)); len(got) != 0 {
		t.Fatalf("empty faults produced %d components", len(got))
	}
}

func TestComponentsPartitionFaults(t *testing.T) {
	m := grid.New(30, 30)
	for seed := int64(0); seed < 10; seed++ {
		faults := fault.NewInjector(m, fault.Clustered, seed).Inject(60)
		comps := Find(faults)
		union := nodeset.New(m)
		for _, c := range comps {
			if !union.Disjoint(c.Nodes) {
				t.Fatal("components overlap")
			}
			union.UnionWith(c.Nodes)
		}
		if !union.Equal(faults) {
			t.Fatal("components do not partition the faults")
		}
	}
}

func TestClosurePlainMesh(t *testing.T) {
	m := grid.New(10, 10)
	// U-shape: closure fills the cavity.
	faults := nodeset.FromCoords(m,
		grid.XY(2, 2), grid.XY(2, 3), grid.XY(3, 2), grid.XY(4, 2), grid.XY(4, 3))
	comps := Find(faults)
	if len(comps) != 1 {
		t.Fatalf("want one component, got %d", len(comps))
	}
	cl := comps[0].Closure()
	if !cl.Has(grid.XY(3, 3)) || cl.Len() != 6 {
		t.Fatalf("closure = %v", cl)
	}
	if !kernel.IsOrthoConvex(cl) {
		t.Fatal("closure must be convex")
	}
}

func TestTorusWrappingComponent(t *testing.T) {
	m := grid.NewTorus(8, 8)
	// Component straddling the X wrap: (7,3) and (0,3) are link neighbours
	// on the torus, plus (0,4) diagonal-ish.
	faults := nodeset.FromCoords(m, grid.XY(7, 3), grid.XY(0, 3), grid.XY(0, 4))
	comps := Find(faults)
	if len(comps) != 1 {
		t.Fatalf("wrap component split: %d components", len(comps))
	}
	c := comps[0]
	if c.OffX == 0 {
		t.Fatal("X offset should unwrap the straddling component")
	}
	if got := c.Bounds.Width(); got != 2 {
		t.Fatalf("unwrapped width = %d, want 2 (columns 7 and 0 adjacent)", got)
	}
	// Round-trip mapping.
	c.Nodes.Each(func(raw grid.Coord) {
		if back := c.FromUnwrapped(c.ToUnwrapped(raw)); back != raw {
			t.Fatalf("round trip %v -> %v", raw, back)
		}
	})
	// Closure in raw coordinates still covers the component.
	cl := c.Closure()
	if !cl.ContainsAll(c.Nodes) {
		t.Fatal("closure lost component nodes")
	}
}

func TestTorusWrapBothDims(t *testing.T) {
	m := grid.NewTorus(6, 6)
	faults := nodeset.FromCoords(m, grid.XY(5, 5), grid.XY(0, 0), grid.XY(5, 0), grid.XY(0, 5))
	comps := Find(faults)
	if len(comps) != 1 {
		t.Fatalf("corner-wrap component split into %d", len(comps))
	}
	c := comps[0]
	if c.Bounds.Width() != 2 || c.Bounds.Height() != 2 {
		t.Fatalf("unwrapped bounds = %v, want 2x2", c.Bounds)
	}
	cl := c.Closure()
	if cl.Len() != 4 {
		t.Fatalf("closure = %v, want the 4 corners (a 2x2 square unwrapped)", cl)
	}
}

func TestTorusFullRingComponent(t *testing.T) {
	m := grid.NewTorus(6, 6)
	// A full row occupies every column: no X unwrap possible. Must not
	// panic, and closure must still cover the component.
	faults := nodeset.New(m)
	for x := 0; x < 6; x++ {
		faults.Add(grid.XY(x, 2))
	}
	comps := Find(faults)
	if len(comps) != 1 {
		t.Fatalf("ring component split into %d", len(comps))
	}
	cl := comps[0].Closure()
	if !cl.ContainsAll(faults) {
		t.Fatal("ring closure lost nodes")
	}
}

func TestMeshComponentsHaveZeroOffsets(t *testing.T) {
	m := grid.New(12, 12)
	faults := fault.NewInjector(m, fault.Random, 4).Inject(20)
	for _, c := range Find(faults) {
		if c.OffX != 0 || c.OffY != 0 {
			t.Fatal("plain mesh components must not be translated")
		}
		if c.Mesh() != m {
			t.Fatal("Mesh accessor wrong")
		}
	}
}

// On scattered instances closures of distinct components are disjoint, but
// a component inside another component's concave region makes them overlap;
// the library must produce the closure in both situations (the superseding
// rule resolves status conflicts downstream).
func TestClosureOverlapSemantics(t *testing.T) {
	m := grid.New(40, 40)
	for seed := int64(0); seed < 8; seed++ {
		faults := fault.NewInjector(m, fault.Random, seed).Inject(30)
		comps := Find(faults)
		for i := range comps {
			for j := i + 1; j < len(comps); j++ {
				if !comps[i].Closure().Disjoint(comps[j].Closure()) {
					t.Fatalf("seed %d: scattered closures %d and %d overlap", seed, i, j)
				}
			}
		}
	}
	// Crafted overlap: a U-shaped component whose cavity hosts a second
	// component. The U's closure must swallow the inner component's cells.
	faults := nodeset.New(m)
	for y := 0; y <= 5; y++ {
		faults.Add(grid.XY(10, y))
		faults.Add(grid.XY(16, y))
	}
	for x := 10; x <= 16; x++ {
		faults.Add(grid.XY(x, 0))
	}
	faults.Add(grid.XY(12, 3))
	faults.Add(grid.XY(13, 3))
	comps := Find(faults)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	var u, inner *Component
	for _, c := range comps {
		if c.Nodes.Len() > 2 {
			u = c
		} else {
			inner = c
		}
	}
	if u == nil || inner == nil {
		t.Fatal("could not identify the U and the inner bar")
	}
	if !u.Closure().ContainsAll(inner.Nodes) {
		t.Fatal("the U's closure must cover the inner component (overlapping polygons)")
	}
}

// New must agree with Find on every component it would have produced, on
// meshes and tori alike, so incremental maintainers can form components
// without re-running the global merge process.
func TestNewMatchesFind(t *testing.T) {
	for _, m := range []grid.Mesh{grid.New(16, 16), grid.NewTorus(16, 16)} {
		faults := fault.NewInjector(m, fault.Clustered, 11).Inject(30)
		for _, want := range Find(faults) {
			got := New(m, want.Nodes.Clone())
			if !got.Nodes.Equal(want.Nodes) {
				t.Fatalf("%v: New changed the node set", m)
			}
			if got.Bounds != want.Bounds || got.OffX != want.OffX || got.OffY != want.OffY {
				t.Fatalf("%v: New bounds/offsets %v %d,%d want %v %d,%d",
					m, got.Bounds, got.OffX, got.OffY, want.Bounds, want.OffX, want.OffY)
			}
			if !got.Closure().Equal(want.Closure()) {
				t.Fatalf("%v: New closure differs from Find closure", m)
			}
		}
	}
}
