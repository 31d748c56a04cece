// Package mfp implements the paper's primary contribution in its
// centralized form (Section 3.1): constructing the minimum orthogonal
// convex polygons (minimum faulty polygons) that cover a set of faulty
// nodes with the fewest disabled non-faulty nodes.
//
// Both published solutions are provided. Build uses the second solution
// (identify the concave row and column sections of each component and
// disable their nodes). BuildLabelling uses the first solution (grow each
// component into its virtual faulty block with labelling scheme 1, then
// shrink it with labelling scheme 2), emulated on a per-component sub-mesh,
// which also yields the round count plotted as the CMFP curve in Figure 11.
// Both solutions produce identical polygons; the test suite asserts this
// equivalence on random instances.
//
// Build answers the static question: one fault set, one construction.
// Under fault churn (a stream of arrivals and repairs), internal/engine
// maintains the same per-component polygons incrementally and assembles
// them into this package's Result shape, so downstream code is agnostic
// about which path produced the construction.
package mfp

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/component"
	"repro/internal/fp"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
	"repro/internal/pool"
)

// Result holds the minimum faulty polygons for a fault set.
type Result struct {
	Mesh   grid.Mesh
	Faults *nodeset.Set
	// Components are the faulty components from the merge process;
	// Polygons[i] is the minimum faulty polygon of Components[i], in raw
	// mesh coordinates.
	Components []*component.Component
	Polygons   []*nodeset.Set
	// Disabled is the union of all polygons after piling them with the
	// superseding rule: every node of any polygon is disabled (faults
	// included).
	Disabled *nodeset.Set
	// Rounds is the number of synchronous rounds of the emulated labelling
	// schemes, maximized over components since all components are labelled
	// in parallel. It is populated by BuildLabelling and zero for Build.
	Rounds int
}

// Build constructs minimum faulty polygons with the concave-section
// solution: each component's polygon is its orthogonal convex closure.
// Components are processed on one worker per available CPU; use
// BuildWorkers to bound or disable the pool.
func Build(m grid.Mesh, faults *nodeset.Set) *Result {
	return BuildWorkers(m, faults, 0)
}

// BuildWorkers is Build with an explicit worker-pool bound: zero means one
// worker per available CPU, one forces the serial path. Components are
// disjoint sub-meshes, so they are closed independently and the polygons and
// disabled set are identical for every worker count.
func BuildWorkers(m grid.Mesh, faults *nodeset.Set, workers int) *Result {
	res := &Result{
		Mesh:       m,
		Faults:     faults.Clone(),
		Components: component.Find(faults),
		Disabled:   nodeset.New(m),
	}
	res.Polygons = make([]*nodeset.Set, len(res.Components))
	pool.ForEach(len(res.Components), workers, func(i int) {
		res.Polygons[i] = res.Components[i].Closure()
	})
	for _, p := range res.Polygons {
		res.Disabled.UnionWith(p)
	}
	return res
}

// BuildLabelling constructs minimum faulty polygons with the
// virtual-faulty-block solution and records the parallel round count. Each
// component is grown by labelling scheme 1 inside its own bounding-box
// sub-mesh (the virtual faulty block) and shrunk by labelling scheme 2; the
// network-wide round count is the maximum over components because every
// component's labelling proceeds concurrently. Like Build, the emulation
// fans components out to one worker per CPU; see BuildLabellingWorkers.
func BuildLabelling(m grid.Mesh, faults *nodeset.Set) *Result {
	return BuildLabellingWorkers(m, faults, 0)
}

// BuildLabellingWorkers is BuildLabelling with an explicit worker-pool
// bound, with the same semantics as BuildWorkers.
func BuildLabellingWorkers(m grid.Mesh, faults *nodeset.Set, workers int) *Result {
	res := &Result{
		Mesh:       m,
		Faults:     faults.Clone(),
		Components: component.Find(faults),
		Disabled:   nodeset.New(m),
	}
	res.Polygons = make([]*nodeset.Set, len(res.Components))
	rounds := make([]int, len(res.Components))
	pool.ForEach(len(res.Components), workers, func(i int) {
		res.Polygons[i], rounds[i] = emulate(res.Components[i])
	})
	for i, p := range res.Polygons {
		res.Disabled.UnionWith(p)
		if rounds[i] > res.Rounds {
			res.Rounds = rounds[i]
		}
	}
	return res
}

// emulate runs labelling schemes 1 and 2 on the component's virtual faulty
// block, hosted on a sub-mesh one node wider than the bounding box on every
// side so the block's surroundings read as safe/enabled.
func emulate(c *component.Component) (*nodeset.Set, int) {
	b := c.Bounds
	sub := grid.New(b.Width()+2, b.Height()+2)
	subFaults := nodeset.New(sub)
	c.Unwrapped().Each(func(u grid.Coord) {
		subFaults.Add(grid.XY(u.X-b.MinX+1, u.Y-b.MinY+1))
	})
	grown := block.Build(sub, subFaults)
	shrunk := fp.Build(grown)

	out := nodeset.New(c.Mesh())
	shrunk.Disabled.Each(func(sc grid.Coord) {
		out.Add(c.FromUnwrapped(grid.XY(sc.X+b.MinX-1, sc.Y+b.MinY-1)))
	})
	return out, grown.Rounds + shrunk.ShrinkRounds
}

// DisabledNonFaulty returns the number of non-faulty nodes disabled by the
// minimum faulty polygons — the MFP curve of Figure 9.
func (r *Result) DisabledNonFaulty() int { return r.Disabled.Len() - r.Faults.Len() }

// MeanPolygonSize returns the average number of nodes per minimum faulty
// polygon — the MFP curve of Figure 10 (0 when there are none).
func (r *Result) MeanPolygonSize() float64 {
	if len(r.Polygons) == 0 {
		return 0
	}
	total := 0
	for _, p := range r.Polygons {
		total += p.Len()
	}
	return float64(total) / float64(len(r.Polygons))
}

// Validate checks the theorem of Section 3.1 on this instance: each polygon
// is the orthogonal convex closure of its component (minimum and convex),
// polygons cover all faults, and their union is the disabled set. Polygons
// are usually pairwise disjoint, but when a component lies inside another
// component's concave region the regions overlap and the superseding rule
// resolves node status; disjointness is therefore deliberately not checked.
func (r *Result) Validate() error {
	if len(r.Polygons) != len(r.Components) {
		return fmt.Errorf("mfp: %d polygons for %d components", len(r.Polygons), len(r.Components))
	}
	covered := nodeset.New(r.Mesh)
	for i, p := range r.Polygons {
		c := r.Components[i]
		if !p.ContainsAll(c.Nodes) {
			return fmt.Errorf("mfp: polygon %d misses component nodes", i)
		}
		if want := c.Closure(); !p.Equal(want) {
			return fmt.Errorf("mfp: polygon %d is not the minimum polygon of its component", i)
		}
		covered.UnionWith(p)
		// Convexity holds in the frame the polygon was computed in; on a
		// plain mesh that is the raw frame.
		if !r.Mesh.Torus && !kernel.IsOrthoConvex(p) {
			return fmt.Errorf("mfp: polygon %d is not orthogonal convex", i)
		}
	}
	if !covered.Equal(r.Disabled) {
		return fmt.Errorf("mfp: disabled set is not the union of the polygons")
	}
	if !r.Disabled.ContainsAll(r.Faults) {
		return fmt.Errorf("mfp: a fault escaped the polygons")
	}
	return nil
}
