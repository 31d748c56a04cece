// Package core is the public face of the library: one call builds all
// three fault-region models of the paper for a fault set — rectangular
// faulty blocks (FB, labelling scheme 1), sub-minimum faulty polygons (FP,
// labelling schemes 1+2, Wu IPDPS 2001) and minimum faulty polygons (MFP,
// this paper's contribution, centralized and/or distributed) — and exposes
// the per-model status classification and the metrics reported in the
// paper's evaluation (disabled non-faulty nodes, region sizes, rounds of
// status determination).
package core

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/dmfp"
	"repro/internal/fp"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/mfp"
	"repro/internal/nodeset"
	"repro/internal/status"
)

// Model selects one of the paper's fault-region models.
type Model int

const (
	// FB is the rectangular faulty block model.
	FB Model = iota
	// FP is Wu's sub-minimum faulty polygon model.
	FP
	// MFP is the minimum faulty polygon model (the paper's contribution).
	MFP
)

// String returns the acronym used in the paper's figures.
func (m Model) String() string {
	switch m {
	case FB:
		return "FB"
	case FP:
		return "FP"
	case MFP:
		return "MFP"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Options selects optional (more expensive) parts of the construction.
type Options struct {
	// Distributed additionally runs the distributed MFP construction
	// (boundary rings and notifications) and records its round count.
	// Requires a non-torus mesh.
	Distributed bool
	// EmulateRounds additionally runs the centralized MFP solution based
	// on labelling schemes 1 and 2 (per-component emulation) to obtain the
	// CMFP round count of Figure 11.
	EmulateRounds bool
	// Workers bounds the worker pool of the parallel construction phases
	// (per-component MFP closure and labelling emulation). Zero means one
	// worker per available CPU, one forces the serial path; results are
	// identical for every value.
	Workers int
}

// Construction bundles the three models built from one fault set.
type Construction struct {
	Mesh   grid.Mesh
	Faults *nodeset.Set
	// Blocks is the FB model result (always built; FP and MFP depend on
	// its growing phase only conceptually, not computationally).
	Blocks *block.Result
	// SubMinimum is the FP model result.
	SubMinimum *fp.Result
	// Minimum is the centralized MFP result (concave-section solution).
	Minimum *mfp.Result
	// MinimumRounds is the CMFP round count; valid when Options.EmulateRounds.
	MinimumRounds int
	// Distributed is the DMFP result; nil unless Options.Distributed.
	Distributed *dmfp.Result
}

// Construct builds the requested models for the fault set.
func Construct(m grid.Mesh, faults *nodeset.Set, opts Options) *Construction {
	c := &Construction{Mesh: m, Faults: faults.Clone()}
	c.Blocks = block.Build(m, faults)
	c.SubMinimum = fp.Build(c.Blocks)
	c.Minimum = mfp.BuildWorkers(m, faults, opts.Workers)
	if opts.EmulateRounds {
		c.MinimumRounds = mfp.BuildLabellingWorkers(m, faults, opts.Workers).Rounds
	}
	if opts.Distributed {
		c.Distributed = dmfp.Build(m, faults)
	}
	return c
}

// Reference runs Construct on faults with one worker and adapts the result
// to the shape kernel.Snapshot.Verify compares an engine's snapshot
// against: the MFP components and polygons, their disabled union, the FB
// unsafe set and the MFP classification.
func Reference(faults *nodeset.Set) kernel.Reference[grid.Coord, grid.Mesh] {
	c := Construct(faults.Mesh(), faults, Options{Workers: 1})
	comps := make([]*nodeset.Set, len(c.Minimum.Components))
	for i, comp := range c.Minimum.Components {
		comps[i] = comp.Nodes
	}
	return kernel.Reference[grid.Coord, grid.Mesh]{
		Faults:     c.Faults,
		Components: comps,
		Polygons:   c.Minimum.Polygons,
		Disabled:   c.Minimum.Disabled,
		Unsafe:     c.Blocks.Unsafe,
		Class:      func(n grid.Coord) status.Class { return c.Class(MFP, n) },
	}
}

// disabledSet returns the disabled node set (faults included) of a model.
func (c *Construction) disabledSet(m Model) *nodeset.Set {
	switch m {
	case FB:
		return c.Blocks.Unsafe
	case FP:
		return c.SubMinimum.Disabled
	case MFP:
		return c.Minimum.Disabled
	}
	panic(fmt.Sprintf("core: unknown model %d", int(m)))
}

// Class returns the status of a node under the given model, using the
// paper's classification: faulty, disabled (unsafe and disabled), enabled
// (unsafe but enabled — inside a faulty block yet outside the polygon) or
// safe.
func (c *Construction) Class(m Model, node grid.Coord) status.Class {
	return status.Classify(c.Faults.Has(node), c.disabledSet(m).Has(node), c.Blocks.Unsafe.Has(node))
}

// Disabled returns the set of nodes excluded from routing under the model
// (faulty plus disabled non-faulty). The returned set is shared; clone
// before mutating.
func (c *Construction) Disabled(m Model) *nodeset.Set { return c.disabledSet(m) }

// DisabledNonFaulty returns the number of non-faulty nodes the model
// disables — the Figure 9 metric.
func (c *Construction) DisabledNonFaulty(m Model) int {
	return c.disabledSet(m).Len() - c.Faults.Len()
}

// MeanRegionSize returns the average number of nodes per fault region
// (block or polygon) under the model — the Figure 10 metric.
func (c *Construction) MeanRegionSize(m Model) float64 {
	switch m {
	case FB:
		return c.Blocks.MeanBlockSize()
	case FP:
		return c.SubMinimum.MeanPolygonSize()
	case MFP:
		return c.Minimum.MeanPolygonSize()
	}
	panic(fmt.Sprintf("core: unknown model %d", int(m)))
}

// Rounds returns the number of rounds of status determination under the
// model — the Figure 11 metric. For MFP it reports the centralized (CMFP)
// count, which requires Options.EmulateRounds; see DistributedRounds for
// the DMFP count.
func (c *Construction) Rounds(m Model) int {
	switch m {
	case FB:
		return c.Blocks.Rounds
	case FP:
		return c.SubMinimum.Rounds()
	case MFP:
		return c.MinimumRounds
	}
	panic(fmt.Sprintf("core: unknown model %d", int(m)))
}

// DistributedRounds returns the DMFP round count; it panics unless the
// construction was built with Options.Distributed.
func (c *Construction) DistributedRounds() int {
	if c.Distributed == nil {
		return 0
	}
	return c.Distributed.Rounds
}

// Validate cross-checks every built model's invariants and the containment
// chain MFP ⊆ FP ⊆ FB; it is the library's self-check used by tests and
// examples.
func (c *Construction) Validate() error {
	if err := c.Blocks.Validate(); err != nil {
		return err
	}
	if err := c.SubMinimum.Validate(c.Blocks); err != nil {
		return err
	}
	if err := c.Minimum.Validate(); err != nil {
		return err
	}
	if !c.SubMinimum.Disabled.ContainsAll(c.Minimum.Disabled) {
		return fmt.Errorf("core: MFP disabled set not inside FP")
	}
	if !c.Blocks.Unsafe.ContainsAll(c.SubMinimum.Disabled) {
		return fmt.Errorf("core: FP disabled set not inside FB")
	}
	if c.Distributed != nil {
		if err := c.Distributed.Validate(); err != nil {
			return err
		}
		if !c.Distributed.Disabled.Equal(c.Minimum.Disabled) {
			return fmt.Errorf("core: distributed and centralized MFP disagree")
		}
	}
	return nil
}
