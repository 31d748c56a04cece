// Package experiments is the harness that regenerates the paper's
// evaluation (Section 4): the data series of Figures 9, 10 and 11 on a
// simulated n×n mesh under the random and clustered fault distribution
// models. The same harness backs the mfpsim command and the repository's
// benchmarks, so both always produce the same numbers for the same
// configuration.
//
// Every sweep fans its (faultCount, trial) cells out to a bounded worker
// pool (Config.Workers); results are merged in canonical order, so the
// tables are identical for every worker count, including the serial run.
//
// Beyond the paper's static sweeps, Churn is the fault arrival/repair
// scenario of the incremental engines, one type for both dimensions
// (Churn2D, Churn3D): its replay through the engine, its per-event
// from-scratch rebuild and its final batch build back mfpsim's -churn and
// -churn3d reports and the churn benchmark records. Stress drives the
// same 2-D stream through many shards, RouteSweep measures routing over
// engine snapshots, and Restart times a durable restart.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/stats"
)

// Config describes one sweep, defaulting to the paper's setting: a 100×100
// mesh, 100..800 faults in steps of 100, both phases of the construction.
type Config struct {
	// MeshSize is the side length n of the n×n mesh (paper: 100).
	MeshSize int
	// FaultCounts are the swept numbers of faulty nodes (paper: up to 800).
	FaultCounts []int
	// Trials is the number of independent fault sets per point.
	Trials int
	// Model selects the fault distribution model.
	Model fault.Model
	// BaseSeed derives per-trial seeds; a fixed base makes sweeps
	// reproducible.
	BaseSeed int64
	// Workers bounds the sweep's worker pool. Zero means one worker per
	// available CPU; one forces the serial path. The produced tables are
	// identical for every value.
	Workers int
}

// Default returns the paper's configuration for the given distribution
// model with the requested number of trials.
func Default(model fault.Model, trials int) Config {
	return Config{
		MeshSize:    100,
		FaultCounts: []int{100, 200, 300, 400, 500, 600, 700, 800},
		Trials:      trials,
		Model:       model,
		BaseSeed:    1,
	}
}

func (c Config) validate() {
	if c.MeshSize <= 0 || c.Trials <= 0 || len(c.FaultCounts) == 0 || c.Workers < 0 {
		panic(fmt.Sprintf("experiments: invalid config %+v", c))
	}
}

// seedFor gives every (point, trial) pair its own deterministic stream.
func (c Config) seedFor(faults, trial int) int64 {
	return c.BaseSeed + int64(faults)*1_000_003 + int64(trial)
}

// cellOptions are the construction options used inside a sweep cell. The
// sweep's own pool already saturates the CPUs, so per-construction
// parallelism would only oversubscribe; cells always build serially.
var cellOptions = core.Options{Workers: 1}

// Figure9 reproduces Figure 9: the average number of non-faulty but
// disabled nodes in the whole network under FB, FP and MFP. The paper plots
// log10 of these counts; pass the table through stats.Log10 when printing.
func Figure9(cfg Config) *stats.Table {
	return cfg.sweep([]string{"FB", "FP", "MFP"}, func(m grid.Mesh, faults *nodeset.Set) []float64 {
		c := core.Construct(m, faults, cellOptions)
		return []float64{
			float64(c.DisabledNonFaulty(core.FB)),
			float64(c.DisabledNonFaulty(core.FP)),
			float64(c.DisabledNonFaulty(core.MFP)),
		}
	})
}

// Figure10 reproduces Figure 10: the average size (faulty plus non-faulty
// nodes) of a fault region under FB, FP and MFP.
func Figure10(cfg Config) *stats.Table {
	return cfg.sweep([]string{"FB", "FP", "MFP"}, func(m grid.Mesh, faults *nodeset.Set) []float64 {
		c := core.Construct(m, faults, cellOptions)
		return []float64{
			c.MeanRegionSize(core.FB),
			c.MeanRegionSize(core.FP),
			c.MeanRegionSize(core.MFP),
		}
	})
}

// Figure11 reproduces Figure 11: the average number of rounds of status
// determination in the whole network under FB, FP, CMFP (centralized) and
// DMFP (distributed).
func Figure11(cfg Config) *stats.Table {
	opts := cellOptions
	opts.Distributed = true
	opts.EmulateRounds = true
	return cfg.sweep([]string{"FB", "FP", "CMFP", "DMFP"}, func(m grid.Mesh, faults *nodeset.Set) []float64 {
		c := core.Construct(m, faults, opts)
		return []float64{
			float64(c.Rounds(core.FB)),
			float64(c.Rounds(core.FP)),
			float64(c.Rounds(core.MFP)),
			float64(c.DistributedRounds()),
		}
	})
}

// Figure runs the numbered figure (9, 10 or 11).
func Figure(number int, cfg Config) (*stats.Table, error) {
	switch number {
	case 9:
		return Figure9(cfg), nil
	case 10:
		return Figure10(cfg), nil
	case 11:
		return Figure11(cfg), nil
	}
	return nil, fmt.Errorf("experiments: the paper has no figure %d sweep (9, 10 or 11)", number)
}
