// Command mfpsim regenerates the data of the paper's evaluation figures on
// a simulated 2-D mesh.
//
// Usage examples:
//
//	mfpsim -figure 9 -dist random            # Figure 9 (a)
//	mfpsim -figure 11 -dist clustered        # Figure 11 (b)
//	mfpsim -figure 0 -dist both              # every figure, both models
//	mfpsim -figure 10 -dist random -csv      # machine-readable output
//	mfpsim -mesh 50 -faults 50,100,150 -trials 10
//	mfpsim -workers 8                        # bound the sweep's worker pool
//	mfpsim -bench-json                       # timing sweep -> BENCH_sweep.json
//	mfpsim -bench-json -bench-compare old.json  # fail on perf regressions
//	mfpsim -churn 200                        # incremental vs rebuild speedup
//	mfpsim -churn3d 200                      # the same scenario on a 3-D mesh
//	mfpsim -churn3d-size 64                  # 3-D churn at the 64³ benchmark scale
//	mfpsim -stress                           # multi-shard differential stress run
//	mfpsim -stress -stress-shards 40 -stress-events 100000 -stress-clients 16
//	mfpsim -stress -stress-crash             # durable run with kill/recover cycles
//	mfpsim -route                            # detour overhead vs fault density
//	mfpsim -route -route-messages 1000 -dist clustered -workers 4
//
// Figure 9 tables are printed as log10 of the disabled-node count, matching
// the paper's y-axis; -csv always emits raw values.
//
// Sweeps fan their (faultCount, trial) cells out to -workers goroutines
// (default: one per CPU) and produce identical tables for every worker
// count. -bench-json times each requested sweep and a paper-scale
// mfp.Build at several pool sizes, plus the fixed churn scenario
// (incremental engine vs full rebuild per fault event), and writes the
// machine-readable report that CI archives per commit and diffs against
// the committed BENCH_baseline.json (see internal/benchfmt).
//
// -churn N runs the fault arrival/repair scenario of
// internal/experiments once: N events at steady state (default 1% density,
// override with -faults taking the first count) replayed both through the
// incremental engine and through a from-scratch core.Construct per event,
// differentially checked and reported with the speedup.
//
// -churn3d N is the same scenario on a 3-D mesh (steady-state fault count
// from the first -faults entry), replayed through internal/engine3 and
// through a from-scratch mfp3d.Build per event, with the same check and
// report. -churn3d-size selects the scale (12 is the historical default;
// 64 and 128 are the benchmarked scales of the incremental cuboid block
// model) and enters the mode on its own with the scale's benchmark
// defaults. On meshes past 64³ nodes, in either dimension, a per-event
// rebuild is infeasible — that regime is the engine's reason to exist — so
// the report skips the rebuild timing and checks the incremental result
// against one final batch build instead. Both dimensions also land in -bench-json as the churn/* and
// churn3d/* records (12³, 64³ and the incremental-only 128³).
//
// -route runs the route-overhead sweep: every (faultCount, trial) cell
// feeds its fault set through the incremental engine, builds a
// routing.Planner from the snapshot (the preparation path mfpd's route
// endpoint serves from), routes -route-messages seeded pairs, and reports
// routable%, delivered%, stretch and the abnormal-hop share. Tables are
// byte-identical at any -workers value; CI diffs two worker counts (make
// route-check).
//
// -stress drives interleaved fault churn across dozens of independent
// meshes (internal/shard) from concurrent clients under LRU eviction
// pressure, and differentially verifies every shard's snapshot against a
// from-scratch core.Construct at each checkpoint. The scenario is seeded
// and free of wall-clock: stdout is byte-identical for a fixed -seed at
// any -stress-clients or -stress-resident value (scheduling-dependent
// operational counters go to stderr). A verification failure exits 1 —
// CI runs this as the shard layer's acceptance gate.
//
// -stress-crash additionally runs the scenario durably: every shard
// journals acknowledged batches to a per-mesh WAL in a temp dir, and at
// seeded-random checkpoints the namespace is torn down, a random mesh's
// log gets a torn tail (the shape a crash mid-append leaves), and
// everything is recovered from disk under a zero-loss gate — every
// recovered shard must hold exactly its acknowledged state. stdout stays
// byte-identical to a crash-free run at the same seed; crash accounting
// goes to stderr. CI runs this as the durability acceptance gate (make
// crash-check).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/stats"
)

func main() {
	figure := flag.Int("figure", 0, "figure to reproduce: 9, 10 or 11 (0 = all)")
	dist := flag.String("dist", "both", "fault distribution: random, clustered or both")
	mesh := flag.Int("mesh", 100, "mesh side length n (the paper uses 100)")
	faultsFlag := flag.String("faults", "", "comma-separated fault counts (default: 100..800 step 100)")
	trials := flag.Int("trials", 30, "trials per data point")
	seed := flag.Int64("seed", 1, "base seed for the fault injectors")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	verify := flag.Bool("verify", false, "re-run the sweeps and check every claim of the paper's Section 4")
	workers := flag.Int("workers", 0, "worker-pool bound for the sweeps (0 = one per CPU, 1 = serial)")
	benchJSON := flag.Bool("bench-json", false, "time the sweeps at several worker counts and write a JSON report")
	benchOut := flag.String("bench-out", "BENCH_sweep.json", "output path of the -bench-json report")
	benchIter := flag.Int("bench-iter", 1, "iterations per timed workload in -bench-json mode")
	benchCompare := flag.String("bench-compare", "", "baseline report to diff the -bench-json run against; regressions exit non-zero")
	benchTolerance := flag.Float64("bench-tolerance", 1.30, "slowdown ratio tolerated by -bench-compare")
	churn := flag.Int("churn", 0, "run the fault-churn scenario with this many events and report the incremental-vs-rebuild speedup")
	churn3d := flag.Int("churn3d", 0, "run the 3-D fault-churn scenario with this many events and report the incremental-vs-rebuild speedup")
	churn3dSize := flag.Int("churn3d-size", 12, "mesh side length of the 3-D churn scenario (12, 64 and 128 are the benchmarked scales; past 64 the per-event rebuild baseline is skipped and the check runs against one final batch build)")
	route := flag.Bool("route", false, "run the route-overhead sweep: routed stretch and abnormal-hop share vs fault density under the MFP model")
	routeMessages := flag.Int("route-messages", experiments.DefaultRoute(fault.Random, 1).Messages, "routed source/destination pairs per sweep cell in -route mode")
	// Flag defaults come from DefaultStress so the acceptance-scale floor
	// asserted in its tests binds to what `mfpsim -stress` (and CI's
	// stress gate) actually runs.
	stressDef := experiments.DefaultStress()
	stress := flag.Bool("stress", false, "run the deterministic multi-shard stress scenario with differential verification at every checkpoint")
	stressShards := flag.Int("stress-shards", stressDef.Shards, "number of independent meshes in -stress mode")
	stressEvents := flag.Int("stress-events", stressDef.Events, "total events across all shards in -stress mode")
	stressCheckpoints := flag.Int("stress-checkpoints", stressDef.Checkpoints, "differential verification barriers in -stress mode")
	stressClients := flag.Int("stress-clients", stressDef.Clients, "concurrent client goroutines in -stress mode (0 = GOMAXPROCS; results are identical for every value)")
	stressMesh := flag.Int("stress-mesh", stressDef.MeshSize, "per-shard mesh side length in -stress mode")
	stressResident := flag.Int("stress-resident", stressDef.MaxResident, "LRU bound on resident engines in -stress mode (0 = unlimited, no eviction pressure)")
	stressCrash := flag.Bool("stress-crash", false, "in -stress mode, run durable (per-mesh WALs in a temp dir) with seeded kill/recover cycles and torn-tail injection between checkpoints; zero acknowledged events may be lost")
	flag.Parse()

	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	}
	if *benchTolerance < 1.0 {
		fatal(fmt.Errorf("-bench-tolerance must be >= 1.0 (a slowdown ratio), got %g", *benchTolerance))
	}
	if *verify && *benchJSON {
		fatal(fmt.Errorf("-bench-json cannot be combined with -verify"))
	}
	if *churn < 0 {
		fatal(fmt.Errorf("-churn must be >= 0, got %d", *churn))
	}
	if *churn > 0 && (*verify || *benchJSON) {
		fatal(fmt.Errorf("-churn cannot be combined with -verify or -bench-json"))
	}
	if *churn3d < 0 {
		fatal(fmt.Errorf("-churn3d must be >= 0, got %d", *churn3d))
	}
	// -churn3d-size selects the 3-D scenario on its own, at the scale's
	// benchmark event count; -churn3d N sets the event count.
	churn3dMode := *churn3d > 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "churn3d-size" {
			churn3dMode = true
		}
	})
	if *churn3dSize < 2 {
		fatal(fmt.Errorf("-churn3d-size must be >= 2, got %d", *churn3dSize))
	}
	if churn3dMode && (*verify || *benchJSON || *churn > 0) {
		fatal(fmt.Errorf("-churn3d cannot be combined with -verify, -bench-json or -churn"))
	}
	if *stress && (*verify || *benchJSON || *churn > 0 || churn3dMode) {
		fatal(fmt.Errorf("-stress cannot be combined with -verify, -bench-json or -churn/-churn3d"))
	}
	if *route && (*verify || *benchJSON || *churn > 0 || churn3dMode || *stress) {
		fatal(fmt.Errorf("-route cannot be combined with -verify, -bench-json, -churn, -churn3d or -stress"))
	}
	if !*route {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "route-messages" {
				fatal(fmt.Errorf("-route-messages requires -route"))
			}
		})
	}
	if !*stress {
		// The stress knobs only act in -stress mode; reject them elsewhere
		// so a CI gate missing -stress fails loudly instead of passing
		// vacuously.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "stress-shards", "stress-events", "stress-checkpoints", "stress-clients", "stress-mesh", "stress-resident", "stress-crash":
				fatal(fmt.Errorf("-%s requires -stress", f.Name))
			}
		})
	}
	if !*benchJSON {
		// The bench flags only act in -bench-json mode; reject them there so
		// a CI gate missing -bench-json fails loudly instead of passing
		// vacuously.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "bench-out", "bench-iter", "bench-compare", "bench-tolerance":
				fatal(fmt.Errorf("-%s requires -bench-json", f.Name))
			}
		})
	}

	if *stress {
		cfg := experiments.StressConfig{
			Shards:      *stressShards,
			MeshSize:    *stressMesh,
			Events:      *stressEvents,
			Checkpoints: *stressCheckpoints,
			Clients:     *stressClients,
			MaxResident: *stressResident,
			BaseSeed:    *seed,
		}
		if *stressCrash {
			// The WAL namespace lives in a run-scoped temp dir: crash mode
			// proves recovery, it doesn't accumulate state across runs.
			dataDir, err := os.MkdirTemp("", "mfpsim-stress-wal-")
			if err != nil {
				fatal(err)
			}
			cfg.DataDir = dataDir
			cfg.CompactBytes = 64 << 10 // small enough to force compactions mid-run
			cfg.Crash = true
		}
		err := runStress(os.Stdout, cfg)
		if cfg.DataDir != "" {
			os.RemoveAll(cfg.DataDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mfpsim: stress:", err)
			os.Exit(1)
		}
		return
	}

	if *verify {
		ok := true
		for _, c := range experiments.VerifyClaims(*trials, *workers) {
			verdict := "PASS"
			if !c.Holds {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("[%s] %-22s %s\n        measured: %s\n", verdict, c.ID, c.Statement, c.Detail)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	models, err := parseModels(*dist)
	if err != nil {
		fatal(err)
	}
	counts, err := parseCounts(*faultsFlag)
	if err != nil {
		fatal(err)
	}

	if *route {
		def := experiments.DefaultRoute(models[0], *trials)
		if 2*def.Margin >= *mesh {
			fatal(fmt.Errorf("-route needs -mesh > %d (the fault-injection margin)", 2*def.Margin))
		}
		for _, model := range models {
			cfg := experiments.DefaultRoute(model, *trials)
			cfg.MeshSize = *mesh
			cfg.BaseSeed = *seed
			cfg.Workers = *workers
			cfg.Messages = *routeMessages
			if len(counts) > 0 {
				cfg.FaultCounts = counts
			}
			if err := cfg.Check(); err != nil {
				fatal(err)
			}
			tab := experiments.RouteSweep(cfg)
			if *csv {
				fmt.Printf("# route sweep, %s fault distribution, %dx%d mesh, %d trials, %d messages/cell\n",
					model, *mesh, *mesh, *trials, cfg.Messages)
				fmt.Print(tab.CSV(nil))
				continue
			}
			fmt.Printf("Route sweep — extended e-cube detour overhead under the MFP model (%s fault distribution, %dx%d mesh, %d trials, %d messages/cell)\n",
				model, *mesh, *mesh, *trials, cfg.Messages)
			fmt.Print(tab.Format(nil))
			fmt.Println()
		}
		return
	}

	if *churn > 0 {
		if err := runChurnReport(os.Stdout, churnConfig(*mesh, counts, *churn, *seed)); err != nil {
			fatal(err)
		}
		return
	}

	if churn3dMode {
		cfg := experiments.DefaultChurn3At(*churn3dSize)
		cfg.BaseSeed = *seed
		if *churn3d > 0 {
			cfg.Events = *churn3d
		}
		if len(counts) > 0 {
			cfg.Faults = counts[0]
		}
		if err := runChurnReport(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}

	figures := []int{9, 10, 11}
	if *figure != 0 {
		figures = []int{*figure}
	}

	if *benchJSON {
		cfg := experiments.Default(models[0], *trials)
		cfg.MeshSize = *mesh
		cfg.BaseSeed = *seed
		if len(counts) > 0 {
			cfg.FaultCounts = counts
		}
		churn3s := []experiments.Churn[grid3.Coord, grid3.Mesh]{
			experiments.DefaultChurn3At(12),
			experiments.DefaultChurn3At(64),
			experiments.DefaultChurn3At(128),
		}
		rep, err := runBenchSweepBest(models, figures, cfg, experiments.DefaultChurn(), churn3s,
			experiments.ChurnMeshSweep(), experiments.DefaultRoute(fault.Clustered, *trials), *benchIter, *workers)
		if err != nil {
			fatal(err)
		}
		if err := writeBenchReport(*benchOut, rep); err != nil {
			fatal(err)
		}
		printBenchSummary(os.Stdout, rep)
		fmt.Printf("wrote %s\n", *benchOut)
		if *benchCompare != "" {
			cmp, err := compareBenchReport(*benchCompare, rep, *benchTolerance)
			if err != nil {
				fatal(err)
			}
			// Skips are verdicts, not failures: new and retired workloads
			// are expected across PRs, but a gate that silently compared
			// nothing must be visible in the log.
			for _, s := range cmp.Skipped {
				fmt.Fprintln(os.Stderr, "mfpsim: benchmark", s)
			}
			// Improvements never fail the gate, but a workload sitting
			// below the tolerance band means the committed baseline
			// understates the code — the slack it leaves is exactly where
			// the next real regression hides.
			for _, im := range cmp.Improvements {
				fmt.Fprintln(os.Stderr, "mfpsim: benchmark improvement:", im)
			}
			if len(cmp.Improvements) > 0 {
				fmt.Fprintf(os.Stderr, "mfpsim: %d workload(s) improved past the tolerance band; refresh the baseline (make bench-baseline) to re-tighten the gate\n",
					len(cmp.Improvements))
			}
			for _, g := range cmp.Regressions {
				fmt.Fprintln(os.Stderr, "mfpsim: benchmark regression:", g)
			}
			if len(cmp.Regressions) > 0 {
				os.Exit(1)
			}
			fmt.Printf("no regressions against %s (tolerance %.2fx, %d improved, %d workloads skipped)\n",
				*benchCompare, *benchTolerance, len(cmp.Improvements), len(cmp.Skipped))
		}
		return
	}

	for _, model := range models {
		cfg := experiments.Default(model, *trials)
		cfg.MeshSize = *mesh
		cfg.BaseSeed = *seed
		cfg.Workers = *workers
		if len(counts) > 0 {
			cfg.FaultCounts = counts
		}
		for _, fig := range figures {
			tab, err := experiments.Figure(fig, cfg)
			if err != nil {
				fatal(err)
			}
			if *csv {
				fmt.Printf("# figure %d, %s fault distribution, %dx%d mesh, %d trials\n",
					fig, model, *mesh, *mesh, *trials)
				fmt.Print(tab.CSV(nil))
				continue
			}
			fmt.Printf("Figure %d — %s (%s fault distribution model, %dx%d mesh, %d trials)\n",
				fig, figureCaption(fig), model, *mesh, *mesh, *trials)
			var transform func(float64) float64
			if fig == 9 {
				transform = stats.Log10
				fmt.Println("(values are log10 of the node count, as in the paper's y-axis)")
			}
			fmt.Print(tab.Format(transform))
			fmt.Println()
		}
	}
}

// churnConfig derives the -churn scenario from the shared flags: the
// steady-state fault count is the first -faults entry, defaulting to the
// paper's 1% density (and at least one fault on tiny meshes).
func churnConfig(mesh int, counts []int, events int, seed int64) experiments.Churn[grid.Coord, grid.Mesh] {
	faults := mesh * mesh / 100
	if len(counts) > 0 {
		faults = counts[0]
	}
	if faults < 1 {
		faults = 1
	}
	return experiments.Churn2D(mesh, faults, events, seed)
}

func figureCaption(fig int) string {
	switch fig {
	case 9:
		return "average number of non-faulty but disabled nodes"
	case 10:
		return "average size of fault regions"
	case 11:
		return "average number of rounds for status determination"
	}
	return ""
}

func parseModels(dist string) ([]fault.Model, error) {
	switch dist {
	case "both":
		return []fault.Model{fault.Random, fault.Clustered}, nil
	default:
		m, err := fault.ParseModel(dist)
		if err != nil {
			return nil, err
		}
		return []fault.Model{m}, nil
	}
}

func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid fault count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mfpsim:", err)
	os.Exit(2)
}
