// Package component implements the merge process of the paper's Section 3:
// grouping faulty nodes into components of adjacent (8-neighbourhood,
// Definition 2) faulty nodes, maintaining the four extreme coordinates
// min_x, min_y, max_x and max_y of each component.
//
// On a torus a component may straddle the wraparound boundary; the package
// unwraps such components into a translated frame in which they are
// contiguous, so that bounding boxes and closures remain meaningful. The
// translation is exposed so results can be mapped back to raw coordinates.
package component

import (
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// Component is a maximal set of mutually 8-connected faulty nodes.
type Component struct {
	// Nodes holds the component in raw mesh coordinates.
	Nodes *nodeset.Set
	// Bounds is the bounding rectangle [(min_x,min_y);(max_x,max_y)]
	// maintained by the merge process, in the unwrapped frame.
	Bounds grid.Rect
	// OffX and OffY translate raw coordinates into the unwrapped frame:
	// unwrapped = ((x+OffX) mod W, (y+OffY) mod H). Both are 0 on a plain
	// mesh and for torus components that do not straddle the wrap.
	OffX, OffY int

	mesh grid.Mesh
}

// Find runs the merge process over the fault set and returns the components
// in deterministic (row-major seed) order.
func Find(faults *nodeset.Set) []*Component {
	regions := kernel.Regions(faults)
	out := make([]*Component, len(regions))
	for i, r := range regions {
		out[i] = New(faults.Mesh(), r)
	}
	return out
}

// New wraps an existing node set into a Component, computing the unwrap
// offsets and bounding rectangle exactly as Find does. nodes must be a
// single non-empty 8-connected region over m; the component takes ownership
// of the set, so callers that keep mutating it must pass a clone. It is the
// entry point for incremental maintainers that form components themselves
// (merging on fault arrival, splitting on repair) instead of re-running the
// merge process over the whole fault set.
func New(m grid.Mesh, nodes *nodeset.Set) *Component {
	c := &Component{Nodes: nodes, mesh: m}
	if m.Torus {
		c.OffX, c.OffY = unwrapOffsets(m, nodes)
	}
	c.Bounds = nodeset.Bounds(c.Unwrapped())
	return c
}

// unwrapOffsets picks translations making the region contiguous per
// dimension: if some column (row) is unoccupied, translate it to the last
// column (row) so the region no longer straddles the wrap boundary. A
// region occupying every column (row) cannot be unwrapped in that dimension
// and keeps offset 0.
func unwrapOffsets(m grid.Mesh, r *nodeset.Set) (ox, oy int) {
	colUsed := make([]bool, m.W)
	rowUsed := make([]bool, m.H)
	r.Each(func(c grid.Coord) {
		colUsed[c.X] = true
		rowUsed[c.Y] = true
	})
	for x, used := range colUsed {
		if !used {
			ox = m.W - 1 - x
			break
		}
	}
	for y, used := range rowUsed {
		if !used {
			oy = m.H - 1 - y
			break
		}
	}
	return ox, oy
}

// Mesh returns the mesh the component lives on.
func (c *Component) Mesh() grid.Mesh { return c.mesh }

// ToUnwrapped maps a raw coordinate into the component's unwrapped frame.
func (c *Component) ToUnwrapped(raw grid.Coord) grid.Coord {
	if c.OffX == 0 && c.OffY == 0 {
		return raw
	}
	u, _ := c.mesh.Wrap(grid.XY(raw.X+c.OffX, raw.Y+c.OffY))
	return u
}

// FromUnwrapped maps an unwrapped-frame coordinate back to raw coordinates.
func (c *Component) FromUnwrapped(u grid.Coord) grid.Coord {
	if c.OffX == 0 && c.OffY == 0 {
		return u
	}
	raw, _ := c.mesh.Wrap(grid.XY(u.X-c.OffX, u.Y-c.OffY))
	return raw
}

// Unwrapped returns the component's nodes in the unwrapped frame.
func (c *Component) Unwrapped() *nodeset.Set {
	if c.OffX == 0 && c.OffY == 0 {
		return c.Nodes
	}
	out := nodeset.New(c.mesh)
	c.Nodes.Each(func(raw grid.Coord) { out.Add(c.ToUnwrapped(raw)) })
	return out
}

// Closure returns the minimum orthogonal convex polygon containing the
// component, in raw coordinates. On a torus the closure is computed in the
// unwrapped frame and mapped back.
func (c *Component) Closure() *nodeset.Set {
	cl, _ := kernel.Closure(c.Unwrapped())
	if c.OffX == 0 && c.OffY == 0 {
		return cl
	}
	out := nodeset.New(c.mesh)
	cl.Each(func(u grid.Coord) { out.Add(c.FromUnwrapped(u)) })
	return out
}

// VirtualBlock returns the virtual faulty block of the component — the full
// bounding rectangle used by the paper's first centralized solution — in the
// unwrapped frame.
func (c *Component) VirtualBlock() grid.Rect { return c.Bounds }
