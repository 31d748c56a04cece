// Package polygon provides the 2-D-only parts of the paper's
// orthogonal-convex-region geometry: the concave row/column sections of
// Definition 3 and boundary-ring tracing, which the distributed solution
// and the router consume in 2-D terms.
//
// The convexity test of Definition 1, the fill pass, the orthogonal convex
// closure and the region split (4-adjacency of the network links,
// 8-adjacency of the merge process of Definition 2) are dimension-generic
// and live in internal/kernel: kernel.IsOrthoConvex, kernel.FillOnce,
// kernel.Closure, kernel.LinkRegions and kernel.Regions. This package's
// tests keep pinning them on 2-D meshes, against a brute-force minimum.
package polygon

import (
	"sort"

	"repro/internal/grid"
	"repro/internal/nodeset"
)

// Section is a maximal run of nodes outside a region but between two region
// nodes on the same row or column — a concave row/column section in the
// paper's Definition 3. Nodes are listed from the low coordinate to the
// high one.
type Section struct {
	// Horizontal is true for a concave row section, false for a column
	// section.
	Horizontal bool
	// Line is the Y of a row section or the X of a column section.
	Line int
	// Lo and Hi are the inclusive coordinate range of the gap along the
	// line (X range for rows, Y range for columns).
	Lo, Hi int
}

// Nodes returns the coordinates covered by the section.
func (s Section) Nodes() []grid.Coord {
	out := make([]grid.Coord, 0, s.Hi-s.Lo+1)
	for v := s.Lo; v <= s.Hi; v++ {
		if s.Horizontal {
			out = append(out, grid.XY(v, s.Line))
		} else {
			out = append(out, grid.XY(s.Line, v))
		}
	}
	return out
}

// ConcaveRowSections returns the concave row sections of the region, in
// increasing (row, X) order.
func ConcaveRowSections(s *nodeset.Set) []Section {
	var out []Section
	prev := grid.XY(-2, -2)
	s.Each(func(c grid.Coord) {
		if c.Y == prev.Y && c.X > prev.X+1 {
			out = append(out, Section{Horizontal: true, Line: c.Y, Lo: prev.X + 1, Hi: c.X - 1})
		}
		prev = c
	})
	return out
}

// ConcaveColumnSections returns the concave column sections of the region,
// in increasing (column, Y) order.
func ConcaveColumnSections(s *nodeset.Set) []Section {
	cs := s.Coords()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].X != cs[j].X {
			return cs[i].X < cs[j].X
		}
		return cs[i].Y < cs[j].Y
	})
	var out []Section
	for i := 1; i < len(cs); i++ {
		if cs[i].X == cs[i-1].X && cs[i].Y > cs[i-1].Y+1 {
			out = append(out, Section{Horizontal: false, Line: cs[i].X, Lo: cs[i-1].Y + 1, Hi: cs[i].Y - 1})
		}
	}
	return out
}
