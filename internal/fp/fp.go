// Package fp implements labelling scheme 2 of the paper (the shrinking
// phase), which removes non-faulty nodes from rectangular faulty blocks and
// yields Wu's sub-minimum faulty polygons (IPDPS 2001), the best previously
// known result the paper compares against.
//
// Labelling scheme 2: faulty nodes are disabled forever; safe nodes are
// enabled; an unsafe non-faulty node starts disabled and becomes enabled
// once it has two or more enabled neighbours. The scheme is monotone and
// runs in synchronous rounds on top of the scheme-1 fixpoint.
package fp

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
	"repro/internal/sim"
)

// Node states of labelling scheme 2.
const (
	stateEnabled uint8 = iota
	stateDisabled
	stateFaulty
)

// Result is the outcome of the sub-minimum faulty polygon construction.
type Result struct {
	Mesh   grid.Mesh
	Faults *nodeset.Set
	// Disabled holds every disabled node, faulty and non-faulty alike: the
	// union of the sub-minimum faulty polygons.
	Disabled *nodeset.Set
	// Polygons are the connected disabled regions under the 8-adjacency of
	// Definition 2; each is an orthogonal convex polygon.
	Polygons []*nodeset.Set
	// GrowRounds and ShrinkRounds count the synchronous rounds of labelling
	// schemes 1 and 2 respectively; their sum is the FP curve of Figure 11.
	GrowRounds, ShrinkRounds int
}

// rule is labelling scheme 2: a disabled non-faulty node becomes enabled
// when at least two link neighbours are enabled. Enabled and faulty states
// are absorbing.
func rule(_ grid.Coord, self uint8, neighbor func(grid.Direction) (uint8, bool)) uint8 {
	if self != stateDisabled {
		return self
	}
	enabled := 0
	for _, d := range grid.Directions {
		if v, ok := neighbor(d); ok && v == stateEnabled {
			enabled++
			if enabled == 2 {
				return stateEnabled
			}
		}
	}
	return stateDisabled
}

// Build runs labelling scheme 2 on the faulty blocks of b.
func Build(b *block.Result) *Result {
	m := b.Mesh
	eng := sim.New(m, func(c grid.Coord) uint8 {
		switch {
		case b.Faults.Has(c):
			return stateFaulty
		case b.Unsafe.Has(c):
			return stateDisabled
		default:
			return stateEnabled
		}
	}, rule)
	rounds := eng.Run(m.Size() + 1)

	disabled := nodeset.New(m)
	for i := 0; i < m.Size(); i++ {
		if eng.StateAt(i) != stateEnabled {
			disabled.AddIndex(i)
		}
	}
	return &Result{
		Mesh:         m,
		Faults:       b.Faults.Clone(),
		Disabled:     disabled,
		Polygons:     kernel.Regions(disabled),
		GrowRounds:   b.Rounds,
		ShrinkRounds: rounds,
	}
}

// Rounds returns the total rounds of status determination under the FP
// model: the growing phase plus the extra shrinking rounds.
func (r *Result) Rounds() int { return r.GrowRounds + r.ShrinkRounds }

// DisabledNonFaulty returns the number of non-faulty nodes kept disabled by
// the sub-minimum faulty polygons — the FP curve of Figure 9.
func (r *Result) DisabledNonFaulty() int { return r.Disabled.Len() - r.Faults.Len() }

// MeanPolygonSize returns the average number of nodes per sub-minimum
// faulty polygon — the FP curve of Figure 10 (0 when there are none).
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

// Validate checks the invariants proved in Wu (IPDPS 2001): polygons cover
// all faults, lie inside the faulty blocks, partition the disabled set, and
// each polygon is orthogonal convex.
func (r *Result) Validate(b *block.Result) error {
	if !r.Disabled.ContainsAll(r.Faults) {
		return fmt.Errorf("fp: a fault escaped the disabled set")
	}
	if !b.Unsafe.ContainsAll(r.Disabled) {
		return fmt.Errorf("fp: disabled set leaks outside the faulty blocks")
	}
	covered := nodeset.New(r.Mesh)
	for i, p := range r.Polygons {
		if !covered.Disjoint(p) {
			return fmt.Errorf("fp: polygon %d overlaps a previous polygon", i)
		}
		covered.UnionWith(p)
		// Convexity is checked in raw coordinates; polygons that wrap a
		// torus seam are convex only in an unwrapped frame (see the
		// component package), so the check is skipped there.
		if !r.Mesh.Torus && !kernel.IsOrthoConvex(p) {
			return fmt.Errorf("fp: polygon %d is not orthogonal convex: %v", i, p)
		}
	}
	if !covered.Equal(r.Disabled) {
		return fmt.Errorf("fp: polygons do not partition the disabled set")
	}
	return nil
}
