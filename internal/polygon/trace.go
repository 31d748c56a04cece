package polygon

import (
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// moore8 lists the 8-neighbourhood offsets in clockwise order (Y grows
// north): N, NE, E, SE, S, SW, W, NW.
var moore8 = [8]grid.Coord{
	{X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: -1},
	{X: 0, Y: -1}, {X: -1, Y: -1}, {X: -1, Y: 0}, {X: -1, Y: 1},
}

func mooreIndex(off grid.Coord) int {
	for i, d := range moore8 {
		if d == off {
			return i
		}
	}
	panic("polygon: offset is not an 8-neighbour")
}

// OuterRing returns the boundary ring of the region: the cyclic walk of
// cells outside the region that surrounds it, computed by Moore-neighbour
// tracing of the region (collecting every probed outside cell). Consecutive
// walk cells are 8-adjacent. Cells may repeat where the ring pinches around
// width-1 features, and cells may lie outside the mesh (a virtual halo)
// when the region touches the border. The walk circulates counterclockwise
// in this module's Y-north frame, which is the paper's clockwise in its
// Y-south figures.
func OuterRing(region *nodeset.Set) []grid.Coord { return AppendOuterRing(nil, region) }

// AppendOuterRing appends the region's boundary ring (see OuterRing) to
// dst and returns the extended slice, so a caller tracing many regions can
// reuse one buffer.
func AppendOuterRing(dst []grid.Coord, region *nodeset.Set) []grid.Coord {
	start, ok := SouthWestMost(region)
	if !ok {
		return dst
	}
	n := len(dst)
	walk := dst

	p := start
	b := grid.XY(start.X, start.Y-1) // south of the lowest row: outside
	walk = append(walk, b)

	// The initial backtrack is artificial (no walker actually entered the
	// start cell from the south), so Jacob's stopping criterion is replaced
	// by repeated-state detection plus seam trimming below.
	type state struct{ p, b grid.Coord }
	seen := map[state]bool{{p, b}: true}
	for steps := 0; ; steps++ {
		if steps > 8*region.Len()+16 {
			panic("polygon: boundary trace did not close")
		}
		idx := mooreIndex(grid.XY(b.X-p.X, b.Y-p.Y))
		advanced := false
		for k := 1; k <= 8; k++ {
			probe := p.Add(moore8[(idx+k)%8])
			if region.Has(probe) {
				p = probe
				advanced = true
				break
			}
			walk = append(walk, probe)
			b = probe
		}
		if !advanced {
			// Single-cell region: the full circle is the ring.
			break
		}
		if seen[state{p, b}] {
			break
		}
		seen[state{p, b}] = true
	}
	return walk[:n+len(canonicalize(trimSeam(walk[n:])))]
}

// BoundaryWalk returns the cyclic walk of the region's own boundary cells
// (cells of the region with an 8-neighbour outside it), in tracing order.
// Inner rings of closed concave regions walk the cavity's cells themselves.
func BoundaryWalk(region *nodeset.Set) []grid.Coord {
	start, ok := SouthWestMost(region)
	if !ok {
		return nil
	}
	if region.Len() == 1 {
		return []grid.Coord{start}
	}
	var walk []grid.Coord
	p := start
	b := grid.XY(start.X, start.Y-1)
	walk = append(walk, p)

	type state struct{ p, b grid.Coord }
	seen := map[state]bool{{p, b}: true}
	for steps := 0; ; steps++ {
		if steps > 8*region.Len()+16 {
			panic("polygon: hole trace did not close")
		}
		idx := mooreIndex(grid.XY(b.X-p.X, b.Y-p.Y))
		advanced := false
		for k := 1; k <= 8; k++ {
			probe := p.Add(moore8[(idx+k)%8])
			if region.Has(probe) {
				b = p.Add(moore8[(idx+k-1)%8])
				p = probe
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
		if seen[state{p, b}] {
			break
		}
		seen[state{p, b}] = true
		walk = append(walk, p)
	}
	return canonicalize(trimSeam(walk))
}

// trimSeam removes the tail probes that re-traverse the walk's head after
// the loop has closed (the artifact of starting with an artificial
// backtrack). At most one partial probe circle (8 cells) can repeat.
func trimSeam(walk []grid.Coord) []grid.Coord {
	maxK := len(walk) / 2
	if maxK > 8 {
		maxK = 8
	}
	for k := maxK; k > 0; k-- {
		match := true
		for i := 0; i < k; i++ {
			if walk[len(walk)-k+i] != walk[i] {
				match = false
				break
			}
		}
		if match {
			return walk[:len(walk)-k]
		}
	}
	return walk
}

// canonicalize collapses consecutive duplicates (including across the
// wrap-around), which represent zero-hop repeats of the same node. It
// compacts the walk in place.
func canonicalize(walk []grid.Coord) []grid.Coord {
	if len(walk) == 0 {
		return walk
	}
	out := walk[:0]
	for _, c := range walk {
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	for len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}

// SouthWestMost returns the lowest then westmost cell of the region. In
// the row-major index order (y*W + x) that is the region's first index, so
// no node is visited.
func SouthWestMost(region *nodeset.Set) (grid.Coord, bool) {
	i := region.FirstIndex()
	if i < 0 {
		return grid.Coord{}, false
	}
	return region.Mesh().CoordAt(i), true
}

// Holes returns the bounded complement regions enclosed by the region: the
// 4-connected sets of outside cells that cannot reach the mesh border.
func Holes(region *nodeset.Set) []*nodeset.Set {
	m := region.Mesh()
	bounds := nodeset.Bounds(region)
	if bounds.Empty() || bounds.Width() < 3 || bounds.Height() < 3 {
		return nil // a hole needs at least a 3x3 bounding box to exist
	}
	// Flood the complement from just outside the bounding box; anything in
	// the box not reached is enclosed.
	area := bounds.Grow(1).Clamp(m)
	outside := nodeset.New(m)
	var stack []grid.Coord
	push := func(c grid.Coord) {
		if area.Contains(c) && !region.Has(c) && !outside.Has(c) {
			outside.Add(c)
			stack = append(stack, c)
		}
	}
	area.Each(func(c grid.Coord) {
		onEdge := c.X == area.MinX || c.X == area.MaxX || c.Y == area.MinY || c.Y == area.MaxY
		if onEdge {
			push(c)
		}
	})
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(grid.XY(c.X+1, c.Y))
		push(grid.XY(c.X-1, c.Y))
		push(grid.XY(c.X, c.Y+1))
		push(grid.XY(c.X, c.Y-1))
	}
	enclosed := nodeset.New(m)
	bounds.Each(func(c grid.Coord) {
		if !region.Has(c) && !outside.Has(c) {
			enclosed.Add(c)
		}
	})
	if enclosed.Empty() {
		return nil
	}
	return kernel.LinkRegions(enclosed)
}
