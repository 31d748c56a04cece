package mfp3d

import (
	"testing"

	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/nodeset3"
)

func TestIsOrthoConvexShapes(t *testing.T) {
	m := grid3.New(8, 8, 8)
	cases := []struct {
		name string
		s    *nodeset3.Set
		want bool
	}{
		{"empty", nodeset3.New(m), true},
		{"single", nodeset3.FromCoords(m, grid3.XYZ(3, 3, 3)), true},
		{"diagonal", nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(2, 2, 2)), true},
		{"x-gap", nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(3, 1, 1)), false},
		{"y-gap", nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(1, 3, 1)), false},
		{"z-gap", nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(1, 1, 3)), false},
		{"bar", nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(2, 1, 1), grid3.XYZ(3, 1, 1)), true},
	}
	for _, tc := range cases {
		if got := kernel.IsOrthoConvex(tc.s); got != tc.want {
			t.Errorf("%s: IsOrthoConvex = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFillOnceGaps(t *testing.T) {
	m := grid3.New(8, 8, 8)
	s := nodeset3.FromCoords(m, grid3.XYZ(1, 1, 1), grid3.XYZ(4, 1, 1))
	f := kernel.FillOnce(s)
	if f.Len() != 4 || !f.Has(grid3.XYZ(2, 1, 1)) || !f.Has(grid3.XYZ(3, 1, 1)) {
		t.Fatalf("fill = %v", f)
	}
}

// The minimal cascading example: an X-axis fill opens a Y-axis gap, so the
// closure needs more than one pass — the key difference from 2-D.
func TestClosureCascades(t *testing.T) {
	m := grid3.New(8, 8, 8)
	s := nodeset3.FromCoords(m,
		grid3.XYZ(0, 0, 0), grid3.XYZ(2, 0, 0), // X-gap at (1,0,0)
		grid3.XYZ(1, 1, 1), // connects everything
		grid3.XYZ(1, 2, 0), // Y-gap with the filled (1,0,0)
	)
	if got := len(kernel.Regions(s)); got != 1 {
		t.Fatalf("components = %d, want 1", got)
	}
	cl, passes := kernel.Closure(s)
	if passes < 2 {
		t.Fatalf("cascade should need ≥2 passes, got %d", passes)
	}
	if !cl.Has(grid3.XYZ(1, 0, 0)) || !cl.Has(grid3.XYZ(1, 1, 0)) {
		t.Fatalf("cascade cells missing: %v", cl)
	}
	if !kernel.IsOrthoConvex(cl) {
		t.Fatal("closure not convex")
	}
}

// A 3-D diagonal is already orthogonal convex: the polytope model disables
// nothing while the cuboid model disables k^3 - k nodes.
func TestDiagonalWorstCase(t *testing.T) {
	m := grid3.New(10, 10, 10)
	faults := nodeset3.New(m)
	const k = 5
	for i := 0; i < k; i++ {
		faults.Add(grid3.XYZ(2+i, 2+i, 2+i))
	}
	r := Build(m, faults)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := r.PolytopeDisabledNonFaulty(); got != 0 {
		t.Fatalf("polytope disables %d, want 0", got)
	}
	if got := r.CuboidDisabledNonFaulty(); got != k*k*k-k {
		t.Fatalf("cuboid disables %d, want %d", got, k*k*k-k)
	}
}

func TestHollowCubeKeepsCavity(t *testing.T) {
	m := grid3.New(8, 8, 8)
	faults := nodeset3.New(m)
	// The surface of a 3x3x3 cube: the centre is a cavity.
	box := grid3.Box{Min: grid3.XYZ(2, 2, 2), Max: grid3.XYZ(4, 4, 4)}
	box.Each(func(c grid3.Coord) {
		if c != grid3.XYZ(3, 3, 3) {
			faults.Add(c)
		}
	})
	r := Build(m, faults)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !r.DisabledPolytope.Has(grid3.XYZ(3, 3, 3)) {
		t.Fatal("cavity centre must be disabled")
	}
	if r.PolytopeDisabledNonFaulty() != 1 {
		t.Fatalf("disabled = %d, want 1", r.PolytopeDisabledNonFaulty())
	}
}

func TestBuildEmptyAndSingleton(t *testing.T) {
	m := grid3.New(6, 6, 6)
	r := Build(m, nodeset3.New(m))
	if len(r.Components) != 0 || r.PolytopeDisabledNonFaulty() != 0 {
		t.Fatal("empty build wrong")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	r = Build(m, nodeset3.FromCoords(m, grid3.XYZ(3, 3, 3)))
	if r.PolytopeDisabledNonFaulty() != 0 || r.CuboidDisabledNonFaulty() != 0 {
		t.Fatal("singleton should disable nothing")
	}
}

func TestRandomInvariants(t *testing.T) {
	m := grid3.New(12, 12, 12)
	for seed := int64(0); seed < 10; seed++ {
		for _, inject := range []func(grid3.Mesh, int, int64) *nodeset3.Set{RandomFaults, ClusteredFaults} {
			faults := inject(m, 60, seed)
			if faults.Len() != 60 {
				t.Fatalf("seed %d: injected %d", seed, faults.Len())
			}
			r := Build(m, faults)
			if err := r.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !r.DisabledPolytope.ContainsAll(faults) {
				t.Fatalf("seed %d: faults escaped", seed)
			}
			if r.PolytopeDisabledNonFaulty() > r.CuboidDisabledNonFaulty() {
				t.Fatalf("seed %d: polytope disables more than cuboid", seed)
			}
		}
	}
}

// Closure minimality, dimension-independent: removing any added node breaks
// orthogonal convexity.
func TestClosureMinimality(t *testing.T) {
	m := grid3.New(10, 10, 10)
	for seed := int64(0); seed < 8; seed++ {
		faults := ClusteredFaults(m, 25, seed)
		for _, comp := range kernel.Regions(faults) {
			cl, _ := kernel.Closure(comp)
			added := 0
			cl.Each(func(c grid3.Coord) {
				if comp.Has(c) {
					return
				}
				added++
				test := cl.Clone()
				test.Remove(c)
				if kernel.IsOrthoConvex(test) {
					t.Fatalf("seed %d: closure not minimal at %v", seed, c)
				}
			})
			_ = added
		}
	}
}

func TestClusteredFaultsCluster(t *testing.T) {
	m := grid3.New(15, 15, 15)
	adjacency := func(s *nodeset3.Set) float64 {
		if s.Empty() {
			return 0
		}
		adj := 0
		var buf []grid3.Coord
		s.Each(func(c grid3.Coord) {
			buf = m.Neighbors26(c, buf[:0])
			for _, nb := range buf {
				if s.Has(nb) {
					adj++
					return
				}
			}
		})
		return float64(adj) / float64(s.Len())
	}
	var rnd, cl float64
	for seed := int64(0); seed < 8; seed++ {
		rnd += adjacency(RandomFaults(m, 150, seed))
		cl += adjacency(ClusteredFaults(m, 150, seed))
	}
	if cl <= rnd {
		t.Fatalf("3-D clustered model does not cluster: %v vs %v", cl, rnd)
	}
}

func TestTorusPanics(t *testing.T) {
	m := grid3.NewTorus(4, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(m, nodeset3.New(m))
}

func TestInjectPanics(t *testing.T) {
	m := grid3.New(3, 3, 3)
	for _, f := range []func(grid3.Mesh, int, int64) *nodeset3.Set{RandomFaults, ClusteredFaults} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for oversize injection")
				}
			}()
			f(m, 28, 1)
		}()
	}
}
