// Package nodeset is the 2-D instantiation of the kernel's dense node
// bitset: every fault-region algorithm in this module manipulates sets of
// nodes (faulty sets, unsafe regions, disabled regions), and on a 100×100
// mesh a bitset keeps those operations allocation-free and cache-friendly.
// The implementation lives once in internal/kernel, shared with the 3-D
// instantiation (internal/nodeset3); this package pins the 2-D type and
// adds the 2-D-specific bounding-rectangle helper.
package nodeset

import (
	"repro/internal/grid"
	"repro/internal/kernel"
)

// Set is a set of nodes of a fixed 2-D mesh — kernel.Set over grid.Mesh.
// The zero value is unusable; create sets with New. Sets are not safe for
// concurrent mutation.
type Set = kernel.Set[grid.Coord, grid.Mesh]

// New returns an empty set over the given mesh.
func New(m grid.Mesh) *Set { return kernel.NewSet[grid.Coord](m) }

// FromCoords returns a set containing exactly the given coordinates.
// Coordinates outside the mesh cause a panic, mirroring grid.Mesh.Index.
func FromCoords(m grid.Mesh, coords ...grid.Coord) *Set {
	return kernel.SetOf(m, coords...)
}

// Union returns a new set with the nodes of both.
func Union(a, b *Set) *Set { return kernel.Union(a, b) }

// Intersect returns a new set with the common nodes.
func Intersect(a, b *Set) *Set { return kernel.Intersect(a, b) }

// Subtract returns a new set with the nodes of a that are not in b.
func Subtract(a, b *Set) *Set { return kernel.Subtract(a, b) }

// Bounds returns the bounding rectangle of the set (grid.EmptyRect for an
// empty set). It is a free function rather than a method because grid.Rect
// is 2-D-specific while the set type is shared with the 3-D instantiation;
// it converts the word-walking kernel.Set.Bounds, so it allocates nothing
// and makes no per-node call.
func Bounds(s *Set) grid.Rect {
	b := s.Bounds()
	if b.Empty() {
		return grid.EmptyRect()
	}
	return grid.Rect{MinX: int(b.Lo[0]), MinY: int(b.Lo[1]), MaxX: int(b.Hi[0]), MaxY: int(b.Hi[1])}
}
