package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// stressMetricDeltas is the process-metric state the invariant check
// compares across a stress run. Everything is read from obs.Default — the
// same registry mfpd scrapes — so the check exercises the exact counters
// operators see.
type stressMetricDeltas struct {
	requests      float64
	received      float64
	applied       float64
	batches       float64
	evictions     float64
	rebuilds      float64
	engineApplied float64
	// The planner's region counters are reported, not checked: how many
	// regions a build reuses depends on which fetches follow an eviction.
	regionsReused float64
	regionsBuilt  float64
}

func readStressMetrics() stressMetricDeltas {
	get := func(name string, labels ...string) float64 {
		v, _ := obs.Default.Value(name, labels...)
		return v
	}
	return stressMetricDeltas{
		requests:      get("shard_requests_total"),
		received:      get("shard_events_received_total"),
		applied:       get("shard_events_applied_total"),
		batches:       get("shard_batches_total"),
		evictions:     get("shard_evictions_total"),
		rebuilds:      get("shard_rebuilds_total"),
		engineApplied: get("engine_events_applied_total", "2"),
		regionsReused: get("routing_planner_regions_reused_total"),
		regionsBuilt:  get("routing_planner_regions_built_total"),
	}
}

func (a stressMetricDeltas) sub(b stressMetricDeltas) stressMetricDeltas {
	return stressMetricDeltas{
		requests:      a.requests - b.requests,
		received:      a.received - b.received,
		applied:       a.applied - b.applied,
		batches:       a.batches - b.batches,
		evictions:     a.evictions - b.evictions,
		rebuilds:      a.rebuilds - b.rebuilds,
		engineApplied: a.engineApplied - b.engineApplied,
		regionsReused: a.regionsReused - b.regionsReused,
		regionsBuilt:  a.regionsBuilt - b.regionsBuilt,
	}
}

// checkStressMetrics asserts the observability plane against the harness's
// independently tracked ground truth. Exact invariants: every submitted
// event shows up in shard_events_received_total, every state change in
// shard_events_applied_total (the stress streams are all valid), and the
// coalesced batch/request counts match the per-shard stats the report
// aggregated. Evictions and rebuilds are >=: the report samples Stats
// before the manager closes, and a marked shard may still perform its
// eviction between that sample and shutdown. The engine-layer counter is
// also >=: rebuilds replay the fault set through a fresh engine, so it
// counts replayed events on top of first-time applications.
func checkStressMetrics(d stressMetricDeltas, rep *experiments.StressReport) error {
	last := rep.Checkpoints[len(rep.Checkpoints)-1]
	exact := []struct {
		name string
		got  float64
		want float64
	}{
		{"shard_events_received_total", d.received, float64(rep.Config.Events)},
		{"shard_events_applied_total", d.applied, float64(last.Applied)},
		{"shard_batches_total", d.batches, float64(rep.Ops.Batches)},
		{"shard_requests_total", d.requests, float64(rep.Ops.Requests)},
	}
	for _, iv := range exact {
		if iv.got != iv.want {
			return fmt.Errorf("metric invariant failed: %s delta = %g, want %g", iv.name, iv.got, iv.want)
		}
	}
	if d.evictions < float64(rep.Ops.Evictions) {
		return fmt.Errorf("metric invariant failed: shard_evictions_total delta = %g, want >= %d",
			d.evictions, rep.Ops.Evictions)
	}
	if d.rebuilds < float64(rep.Ops.Rebuilds) {
		return fmt.Errorf("metric invariant failed: shard_rebuilds_total delta = %g, want >= %d",
			d.rebuilds, rep.Ops.Rebuilds)
	}
	if d.engineApplied < d.applied {
		return fmt.Errorf("metric invariant failed: engine_events_applied_total{dim=\"2\"} delta = %g, want >= %g",
			d.engineApplied, d.applied)
	}
	return nil
}

// runStress executes the multi-shard stress/differential scenario and
// prints the deterministic report to out. Operational counters (evictions,
// rebuilds, coalescing) depend on scheduling, so they go to stderr and
// stay out of the byte-deterministic stream — as does the metric-invariant
// verdict, which cross-checks the obs registry against the harness's own
// accounting.
func runStress(out io.Writer, cfg experiments.StressConfig) error {
	before := readStressMetrics()
	rep, err := experiments.Stress(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.String())
	fmt.Fprintf(os.Stderr,
		"stress ops (scheduling-dependent): requests=%d batches=%d evictions=%d rebuilds=%d\n",
		rep.Ops.Requests, rep.Ops.Batches, rep.Ops.Evictions, rep.Ops.Rebuilds)
	if cfg.Crash {
		// Crash accounting stays on stderr: the durability claim is that
		// stdout is byte-identical to a crash-free run at the same seed.
		fmt.Fprintf(os.Stderr, "stress crashes: %d kill/recover cycles, %d torn tails injected and truncated, zero acknowledged events lost\n",
			rep.Crashes, rep.TornTails)
	}
	d := readStressMetrics().sub(before)
	if err := checkStressMetrics(d, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"stress metrics: invariants ok (received=%.0f applied=%.0f batches=%.0f evictions=%.0f rebuilds=%.0f); planner regions reused=%.0f built=%.0f\n",
		d.received, d.applied, d.batches, d.evictions, d.rebuilds, d.regionsReused, d.regionsBuilt)
	return nil
}
