package polygon

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

func TestSouthWestMost(t *testing.T) {
	m := grid.New(10, 10)
	if _, ok := SouthWestMost(nodeset.New(m)); ok {
		t.Fatal("empty set has no south-west-most cell")
	}
	s := set(m, grid.XY(5, 2), grid.XY(1, 2), grid.XY(3, 1))
	got, ok := SouthWestMost(s)
	if !ok || got != grid.XY(3, 1) {
		t.Fatalf("SouthWestMost = %v", got)
	}
}

// TestSouthWestMostMatchesPerNode pins SouthWestMost (the set's first
// row-major index) against its per-node definition, the lowest then
// westmost node, on empty, single-node and random sets, a torus included.
func TestSouthWestMostMatchesPerNode(t *testing.T) {
	perNode := func(s *nodeset.Set) (grid.Coord, bool) {
		found := false
		var best grid.Coord
		s.Each(func(c grid.Coord) {
			if !found || c.Y < best.Y || (c.Y == best.Y && c.X < best.X) {
				best, found = c, true
			}
		})
		return best, found
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range []grid.Mesh{grid.New(1, 1), grid.New(10, 7), grid.New(67, 40), grid.NewTorus(13, 9)} {
		check := func(s *nodeset.Set) {
			t.Helper()
			got, gotOK := SouthWestMost(s)
			want, wantOK := perNode(s)
			if got != want || gotOK != wantOK {
				t.Fatalf("%v %v: SouthWestMost = %v %v, per-node %v %v", m, s, got, gotOK, want, wantOK)
			}
		}
		check(nodeset.New(m))
		for i := 0; i < m.Size(); i += 1 + m.Size()/17 {
			check(set(m, m.CoordAt(i)))
		}
		for trial := 0; trial < 50; trial++ {
			s := nodeset.New(m)
			for k := rng.Intn(1 + m.Size()/4); k >= 0; k-- {
				s.Add(m.CoordAt(rng.Intn(m.Size())))
			}
			check(s)
		}
	}
}

func TestOuterRingSingleton(t *testing.T) {
	m := grid.New(8, 8)
	ring := OuterRing(set(m, grid.XY(4, 4)))
	if len(ring) != 8 {
		t.Fatalf("singleton ring has %d cells, want 8", len(ring))
	}
	seen := map[grid.Coord]bool{}
	for _, c := range ring {
		seen[c] = true
		if dx, dy := c.X-4, c.Y-4; dx < -1 || dx > 1 || dy < -1 || dy > 1 || (dx == 0 && dy == 0) {
			t.Fatalf("ring cell %v not adjacent to the fault", c)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("ring repeats cells: %v", ring)
	}
}

func TestOuterRingRectanglePerimeter(t *testing.T) {
	m := grid.New(16, 16)
	for _, wh := range [][2]int{{1, 1}, {2, 2}, {3, 1}, {1, 4}, {4, 3}} {
		w, h := wh[0], wh[1]
		r := rect(m, 5, 5, 5+w-1, 5+h-1)
		ring := OuterRing(r)
		// The ring of a w×h rectangle is 2(w+h)+4 cells.
		if want := 2*(w+h) + 4; len(ring) != want {
			t.Fatalf("%dx%d rectangle: ring %d cells, want %d", w, h, len(ring), want)
		}
	}
}

func TestOuterRingEmpty(t *testing.T) {
	m := grid.New(4, 4)
	if got := OuterRing(nodeset.New(m)); got != nil {
		t.Fatalf("empty region ring = %v", got)
	}
	if got := BoundaryWalk(nodeset.New(m)); got != nil {
		t.Fatalf("empty boundary walk = %v", got)
	}
}

func TestOuterRingClosedCycle(t *testing.T) {
	m := grid.New(24, 24)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		// Random 8-connected blob away from the border.
		s := nodeset.New(m)
		c := grid.XY(8+rng.Intn(8), 8+rng.Intn(8))
		s.Add(c)
		for i := 0; i < 15; i++ {
			c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
			if c.X < 4 || c.X > 19 || c.Y < 4 || c.Y > 19 {
				c = grid.XY(12, 12)
			}
			s.Add(c)
		}
		for _, region := range kernel.Regions(s) {
			ring := OuterRing(region)
			for i, rc := range ring {
				next := ring[(i+1)%len(ring)]
				dx, dy := next.X-rc.X, next.Y-rc.Y
				if dx < -1 || dx > 1 || dy < -1 || dy > 1 || (dx == 0 && dy == 0) {
					t.Fatalf("trial %d: ring step %v -> %v not one hop", trial, rc, next)
				}
				if region.Has(rc) {
					t.Fatalf("trial %d: ring enters region at %v", trial, rc)
				}
			}
			// Every outside cell 4-adjacent to the region is on the ring
			// (needed for detour entry and section end nodes) unless it is
			// enclosed.
			holeCells := map[grid.Coord]bool{}
			for _, h := range Holes(region) {
				h.Each(func(hc grid.Coord) { holeCells[hc] = true })
			}
			onRing := map[grid.Coord]bool{}
			for _, rc := range ring {
				onRing[rc] = true
			}
			region.Each(func(cc grid.Coord) {
				for _, nb := range m.Neighbors4(cc, nil) {
					if !region.Has(nb) && !onRing[nb] && !holeCells[nb] {
						t.Fatalf("trial %d: boundary cell %v missing from ring", trial, nb)
					}
				}
			})
		}
	}
}

func TestBoundaryWalkPair(t *testing.T) {
	m := grid.New(8, 8)
	walk := BoundaryWalk(set(m, grid.XY(2, 2), grid.XY(3, 2)))
	if len(walk) != 2 {
		t.Fatalf("pair boundary walk = %v", walk)
	}
}

func TestBoundaryWalkRectangleCoversBoundary(t *testing.T) {
	m := grid.New(12, 12)
	r := rect(m, 3, 3, 7, 6) // 5x4
	walk := BoundaryWalk(r)
	// Boundary cells of a 5x4 rectangle: 2*(5+4) - 4 = 14.
	seen := map[grid.Coord]bool{}
	for _, c := range walk {
		if !r.Has(c) {
			t.Fatalf("walk cell %v outside region", c)
		}
		seen[c] = true
	}
	if len(seen) != 14 {
		t.Fatalf("boundary walk covers %d distinct cells, want 14", len(seen))
	}
}

func TestHoles(t *testing.T) {
	m := grid.New(12, 12)
	// A ring of cells around a 2x1 cavity.
	region := nodeset.New(m)
	for x := 3; x <= 7; x++ {
		region.Add(grid.XY(x, 3))
		region.Add(grid.XY(x, 5))
	}
	region.Add(grid.XY(3, 4))
	region.Add(grid.XY(7, 4))
	region.Add(grid.XY(5, 4)) // splits the cavity in two 1-cell holes
	hs := Holes(region)
	if len(hs) != 2 {
		t.Fatalf("holes = %d, want 2", len(hs))
	}
	for _, h := range hs {
		if h.Len() != 1 {
			t.Fatalf("hole size %d, want 1", h.Len())
		}
	}
}

func TestHolesNoneForConvexShapes(t *testing.T) {
	m := grid.New(10, 10)
	if hs := Holes(rect(m, 2, 2, 5, 5)); hs != nil {
		t.Fatalf("rectangle has holes: %v", hs)
	}
	if hs := Holes(set(m, grid.XY(1, 1))); hs != nil {
		t.Fatalf("singleton has holes: %v", hs)
	}
	// A U is open, not a hole.
	u := set(m, grid.XY(2, 2), grid.XY(2, 3), grid.XY(3, 2), grid.XY(4, 2), grid.XY(4, 3))
	if hs := Holes(u); hs != nil {
		t.Fatalf("U-shape has holes: %v", hs)
	}
}

func TestHolesAtBorder(t *testing.T) {
	m := grid.New(8, 8)
	// A ring pressed against the border still encloses its cavity.
	region := nodeset.New(m)
	for x := 0; x <= 2; x++ {
		region.Add(grid.XY(x, 0))
		region.Add(grid.XY(x, 2))
	}
	region.Add(grid.XY(0, 1))
	region.Add(grid.XY(2, 1))
	hs := Holes(region)
	if len(hs) != 1 || !hs[0].Has(grid.XY(1, 1)) {
		t.Fatalf("border hole not found: %v", hs)
	}
}

// Property: the ring of the closure of a blob is never longer than twice
// the blob's ring (sanity bound linking contours and closures), and closure
// removes all holes.
func TestClosureRemovesHoles(t *testing.T) {
	m := grid.New(20, 20)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		s := nodeset.New(m)
		c := grid.XY(10, 10)
		s.Add(c)
		for i := 0; i < 18; i++ {
			c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
			if c.X < 3 || c.X > 16 || c.Y < 3 || c.Y > 16 {
				c = grid.XY(10, 10)
			}
			s.Add(c)
		}
		for _, region := range kernel.Regions(s) {
			cl, _ := kernel.Closure(region)
			if hs := Holes(cl); hs != nil {
				t.Fatalf("trial %d: closure still has holes %v", trial, hs)
			}
		}
	}
}
