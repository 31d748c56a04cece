package polygon_test

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/mfp"
	"repro/internal/nodeset"
)

// This file checks the library's closure machinery against a brute-force
// construction of the minimum orthogonal convex polygon on small meshes
// (≤ 8×8), on uniformly random point sets — a different input distribution
// from quick_test.go's connected random walks.
//
// The brute force is an independent argument, not a reimplementation of
// the fill passes: a node is *forced* when it lies strictly between two
// forced nodes on its row or on its column — by Definition 1 any
// orthogonal convex superset of the region must contain it. The fixpoint
// of that rule (computed by naive whole-mesh rescans) is therefore a lower
// bound on every orthogonal convex superset; when the fixpoint is itself
// orthogonal convex (checked naively per row and column), it is exactly
// the minimum. The test fails if the fixpoint ever comes out non-convex,
// so the argument cannot pass vacuously.

// bruteOrthoConvex is the naive Definition 1 check: on every row and every
// column the present nodes form one contiguous run.
func bruteOrthoConvex(s *nodeset.Set) bool {
	m := s.Mesh()
	lineContiguous := func(line []bool) bool {
		lo, hi, n := -1, -1, 0
		for i, has := range line {
			if !has {
				continue
			}
			if lo < 0 {
				lo = i
			}
			hi = i
			n++
		}
		return n == 0 || hi-lo+1 == n
	}
	for y := 0; y < m.H; y++ {
		row := make([]bool, m.W)
		for x := 0; x < m.W; x++ {
			row[x] = s.Has(grid.XY(x, y))
		}
		if !lineContiguous(row) {
			return false
		}
	}
	for x := 0; x < m.W; x++ {
		col := make([]bool, m.H)
		for y := 0; y < m.H; y++ {
			col[y] = s.Has(grid.XY(x, y))
		}
		if !lineContiguous(col) {
			return false
		}
	}
	return true
}

// bruteMinPolygon computes the forced-node fixpoint of the region and
// checks it is orthogonal convex, making it the unique minimum orthogonal
// convex polygon containing the region.
func bruteMinPolygon(t *testing.T, s *nodeset.Set) *nodeset.Set {
	t.Helper()
	m := s.Mesh()
	forced := s.Clone()
	between := func(c grid.Coord, dx, dy int) bool {
		for x, y := c.X+dx, c.Y+dy; x >= 0 && y >= 0 && x < m.W && y < m.H; x, y = x+dx, y+dy {
			if forced.Has(grid.XY(x, y)) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for y := 0; y < m.H; y++ {
			for x := 0; x < m.W; x++ {
				c := grid.XY(x, y)
				if forced.Has(c) {
					continue
				}
				if (between(c, -1, 0) && between(c, 1, 0)) || (between(c, 0, -1) && between(c, 0, 1)) {
					forced.Add(c)
					changed = true
				}
			}
		}
	}
	if !bruteOrthoConvex(forced) {
		t.Fatalf("forced fixpoint is not orthogonal convex for region %v", s)
	}
	return forced
}

// randomSet draws a uniformly random point set (any density, connectivity
// not required) on a random mesh up to 8×8.
func randomSet(rng *rand.Rand) *nodeset.Set {
	m := grid.New(1+rng.Intn(8), 1+rng.Intn(8))
	s := nodeset.New(m)
	density := rng.Float64()
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if rng.Float64() < density {
				s.Add(grid.XY(x, y))
			}
		}
	}
	return s
}

// The closure of every 8-connected region of a random point set equals the
// brute-force minimum orthogonal convex polygon.
func TestClosureMatchesBruteForceMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		s := randomSet(rng)
		for _, region := range kernel.Regions(s) {
			cl, _ := kernel.Closure(region)
			want := bruteMinPolygon(t, region)
			if !cl.Equal(want) {
				t.Fatalf("case %d: closure %v != brute-force minimum %v for region %v", i, cl, want, region)
			}
		}
	}
}

// The full MFP construction agrees with the brute force on small meshes:
// each component's polygon is the brute-force minimum of that component,
// and the disabled set is their union.
func TestMFPMatchesBruteForceMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 200; i++ {
		faults := randomSet(rng)
		res := mfp.Build(faults.Mesh(), faults)
		union := nodeset.New(faults.Mesh())
		for j, comp := range res.Components {
			want := bruteMinPolygon(t, comp.Nodes)
			if !res.Polygons[j].Equal(want) {
				t.Fatalf("case %d: polygon %d %v != brute-force minimum %v",
					i, j, res.Polygons[j], want)
			}
			union.UnionWith(want)
		}
		if !union.Equal(res.Disabled) {
			t.Fatalf("case %d: disabled set is not the union of brute-force minima", i)
		}
	}
}

// Closure is idempotent and monotone on random point sets (per region —
// closure is defined on connected regions), extending the quick_test
// properties beyond connected random walks.
func TestClosureIdempotentMonotoneOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		s := randomSet(rng)
		for _, region := range kernel.Regions(s) {
			cl, _ := kernel.Closure(region)
			again, passes := kernel.Closure(cl)
			if passes != 0 || !again.Equal(cl) {
				t.Fatalf("case %d: closure not idempotent on %v", i, region)
			}
			// Monotone: dropping random nodes from the region can only
			// shrink (or keep) each remaining fragment's closure.
			sub := region.Clone()
			region.Each(func(c grid.Coord) {
				if rng.Intn(3) == 0 {
					sub.Remove(c)
				}
			})
			for _, frag := range kernel.Regions(sub) {
				fragCl, _ := kernel.Closure(frag)
				if !cl.ContainsAll(fragCl) {
					t.Fatalf("case %d: closure not monotone: fragment closure escapes", i)
				}
			}
		}
	}
}
