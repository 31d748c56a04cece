package polygon

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

func set(m grid.Mesh, cs ...grid.Coord) *nodeset.Set { return nodeset.FromCoords(m, cs...) }

func TestIsOrthoConvexShapes(t *testing.T) {
	m := grid.New(10, 10)
	cases := []struct {
		name string
		s    *nodeset.Set
		want bool
	}{
		{"empty", set(m), true},
		{"single", set(m, grid.XY(3, 3)), true},
		// The paper's L-shape example {(2,4),(3,4),(4,3)} is convex.
		{"L-shape", set(m, grid.XY(2, 4), grid.XY(3, 4), grid.XY(4, 3)), true},
		{"rectangle", rect(m, 1, 1, 3, 4), true},
		// +-shape: convex per the paper's Figure 1 discussion.
		{"plus", set(m, grid.XY(2, 1), grid.XY(1, 2), grid.XY(2, 2), grid.XY(3, 2), grid.XY(2, 3)), true},
		// T-shape: convex.
		{"T", set(m, grid.XY(1, 3), grid.XY(2, 3), grid.XY(3, 3), grid.XY(2, 2), grid.XY(2, 1)), true},
		// U-shape: NOT convex (column gap between the arms is outside).
		{"U", set(m, grid.XY(1, 1), grid.XY(1, 2), grid.XY(2, 1), grid.XY(3, 1), grid.XY(3, 2)), false},
		// H-shape: NOT convex.
		{"H", set(m,
			grid.XY(1, 1), grid.XY(1, 2), grid.XY(1, 3),
			grid.XY(3, 1), grid.XY(3, 2), grid.XY(3, 3),
			grid.XY(2, 2)), false},
		// Row gap.
		{"row-gap", set(m, grid.XY(1, 1), grid.XY(3, 1)), false},
		// Diagonal pair: vacuously convex (no two nodes share a line).
		{"diagonal", set(m, grid.XY(1, 1), grid.XY(2, 2)), true},
	}
	for _, tc := range cases {
		if got := kernel.IsOrthoConvex(tc.s); got != tc.want {
			t.Errorf("%s: IsOrthoConvex = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func rect(m grid.Mesh, x0, y0, x1, y1 int) *nodeset.Set {
	s := nodeset.New(m)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			s.Add(grid.XY(x, y))
		}
	}
	return s
}

func TestConcaveRowSections(t *testing.T) {
	m := grid.New(10, 10)
	s := set(m, grid.XY(1, 2), grid.XY(4, 2), grid.XY(6, 2), grid.XY(3, 5))
	secs := ConcaveRowSections(s)
	if len(secs) != 2 {
		t.Fatalf("sections = %v, want 2", secs)
	}
	want0 := Section{Horizontal: true, Line: 2, Lo: 2, Hi: 3}
	want1 := Section{Horizontal: true, Line: 2, Lo: 5, Hi: 5}
	if secs[0] != want0 || secs[1] != want1 {
		t.Fatalf("sections = %v, want [%v %v]", secs, want0, want1)
	}
	nodes := secs[0].Nodes()
	if len(nodes) != 2 || nodes[0] != grid.XY(2, 2) || nodes[1] != grid.XY(3, 2) {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestConcaveColumnSections(t *testing.T) {
	m := grid.New(10, 10)
	s := set(m, grid.XY(2, 1), grid.XY(2, 4), grid.XY(7, 3))
	secs := ConcaveColumnSections(s)
	if len(secs) != 1 {
		t.Fatalf("sections = %v", secs)
	}
	want := Section{Horizontal: false, Line: 2, Lo: 2, Hi: 3}
	if secs[0] != want {
		t.Fatalf("section = %v, want %v", secs[0], want)
	}
	nodes := secs[0].Nodes()
	if len(nodes) != 2 || nodes[0] != grid.XY(2, 2) || nodes[1] != grid.XY(2, 3) {
		t.Fatalf("Nodes = %v", nodes)
	}
}

func TestFillOnceUShape(t *testing.T) {
	m := grid.New(10, 10)
	u := set(m, grid.XY(1, 1), grid.XY(1, 2), grid.XY(2, 1), grid.XY(3, 1), grid.XY(3, 2))
	filled := kernel.FillOnce(u)
	if !filled.Has(grid.XY(2, 2)) {
		t.Fatal("U cavity not filled")
	}
	if filled.Len() != 6 {
		t.Fatalf("filled = %v", filled)
	}
	if !kernel.IsOrthoConvex(filled) {
		t.Fatal("filled U should be convex")
	}
}

func TestClosureConvexIdentity(t *testing.T) {
	m := grid.New(10, 10)
	l := set(m, grid.XY(2, 4), grid.XY(3, 4), grid.XY(4, 3))
	got, passes := kernel.Closure(l)
	if !got.Equal(l) || passes != 0 {
		t.Fatalf("closure of convex region changed it: %v passes=%d", got, passes)
	}
}

func TestClosureProperties(t *testing.T) {
	m := grid.New(16, 16)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		// Random 8-connected blob: a random walk with diagonal steps.
		s := nodeset.New(m)
		c := grid.XY(4+rng.Intn(8), 4+rng.Intn(8))
		s.Add(c)
		for i := 0; i < 12; i++ {
			c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
			if m.Contains(c) {
				s.Add(c)
			}
		}
		cl, _ := kernel.Closure(s)
		if !kernel.IsOrthoConvex(cl) {
			t.Fatalf("trial %d: closure not convex: %v -> %v", trial, s, cl)
		}
		if !cl.ContainsAll(s) {
			t.Fatalf("trial %d: closure lost nodes", trial)
		}
		if !nodeset.Bounds(cl).ContainsRect(nodeset.Bounds(s)) || !nodeset.Bounds(s).ContainsRect(nodeset.Bounds(cl)) {
			t.Fatalf("trial %d: closure changed the bounding box", trial)
		}
		// Minimality: every added node lies on a gap of SOME orthogonal
		// convex superset — verified by the standard argument that any
		// convex superset must contain each fill pass. Recheck directly:
		// removing any added node breaks convexity.
		added := nodeset.Subtract(cl, s)
		added.Each(func(a grid.Coord) {
			test := cl.Clone()
			test.Remove(a)
			if kernel.IsOrthoConvex(test) {
				t.Fatalf("trial %d: closure not minimal, %v removable", trial, a)
			}
		})
	}
}

// For 8-connected regions one fill pass must reach the closure; the paper's
// second centralized solution scans each component only twice.
func TestSinglePassSufficesFor8Connected(t *testing.T) {
	m := grid.New(20, 20)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		s := nodeset.New(m)
		c := grid.XY(5+rng.Intn(10), 5+rng.Intn(10))
		s.Add(c)
		for i := 0; i < 20; i++ {
			c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
			if !m.Contains(c) {
				c = grid.XY(10, 10)
			}
			s.Add(c)
		}
		for _, region := range kernel.Regions(s) {
			once := kernel.FillOnce(region)
			cl, _ := kernel.Closure(region)
			if !once.Equal(cl) {
				t.Fatalf("trial %d: single pass missed closure for %v", trial, region)
			}
		}
	}
}

func TestRegions4vs8(t *testing.T) {
	m := grid.New(10, 10)
	// Two diagonal nodes: one 8-region, two 4-regions.
	s := set(m, grid.XY(2, 2), grid.XY(3, 3))
	if got := len(kernel.Regions(s)); got != 1 {
		t.Fatalf("Regions = %d, want 1", got)
	}
	if got := len(kernel.LinkRegions(s)); got != 2 {
		t.Fatalf("LinkRegions = %d, want 2", got)
	}
	// Distant nodes: separate everywhere.
	s = set(m, grid.XY(0, 0), grid.XY(5, 5))
	if len(kernel.Regions(s)) != 2 || len(kernel.LinkRegions(s)) != 2 {
		t.Fatal("distant nodes must form two regions")
	}
}

func TestRegionsPartition(t *testing.T) {
	m := grid.New(12, 12)
	rng := rand.New(rand.NewSource(9))
	s := nodeset.New(m)
	for i := 0; i < 40; i++ {
		s.Add(grid.XY(rng.Intn(m.W), rng.Intn(m.H)))
	}
	for _, extract := range []func(*nodeset.Set) []*nodeset.Set{kernel.LinkRegions[grid.Coord, grid.Mesh], kernel.Regions[grid.Coord, grid.Mesh]} {
		regions := extract(s)
		union := nodeset.New(m)
		total := 0
		for _, r := range regions {
			if !union.Disjoint(r) {
				t.Fatal("regions overlap")
			}
			union.UnionWith(r)
			total += r.Len()
		}
		if !union.Equal(s) || total != s.Len() {
			t.Fatal("regions do not partition the set")
		}
	}
}

func TestEmptyRegions(t *testing.T) {
	m := grid.New(5, 5)
	if got := kernel.Regions(nodeset.New(m)); len(got) != 0 {
		t.Fatalf("empty set produced %d regions", len(got))
	}
	cl, passes := kernel.Closure(nodeset.New(m))
	if cl.Len() != 0 || passes != 0 {
		t.Fatal("closure of empty set should be empty")
	}
}
