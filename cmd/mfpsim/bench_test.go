package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/grid3"
)

func TestBenchWorkerCounts(t *testing.T) {
	cases := map[int][]int{
		1: {1},
		2: {1, 2},
		3: {1, 2, 3},
		8: {1, 2, 4, 8},
	}
	for limit, want := range cases {
		got := benchWorkerCounts(limit)
		if len(got) != len(want) {
			t.Fatalf("limit %d: %v, want %v", limit, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: %v, want %v", limit, got, want)
			}
		}
	}
	if got := benchWorkerCounts(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("limit 0: %v, want [1]", got)
	}
}

// The full -bench-json path on a tiny configuration: report is written,
// parses back, has the serial baseline and speedups, and round-trips
// through the regression comparison.
func TestRunBenchSweepAndReport(t *testing.T) {
	cfg := experiments.Config{
		MeshSize:    20,
		FaultCounts: []int{10, 20},
		Trials:      2,
		BaseSeed:    5,
	}
	churn := experiments.Churn2D(20, 6, 20, 5)
	churn3 := testChurn3Config()
	churn3Big := testChurn3InfeasibleConfig()
	route := testRouteConfig()
	sweep := []experiments.Churn[grid.Coord, grid.Mesh]{churn, experiments.Churn2D(70, 6, 20, 5)}
	rep, err := runBenchSweep([]fault.Model{fault.Random}, []int{9}, cfg, churn,
		[]experiments.Churn[grid3.Coord, grid3.Mesh]{churn3, churn3Big}, sweep, route, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawSweepSerial, sawBuild, sawChurnRebuild, sawChurnIncremental bool
	var sawChurn3Rebuild, sawChurn3Incremental, sawChurn3BigIncremental bool
	var sawEngine3Allocs, sawEngineBytes bool
	sawPerEvent := map[int]bool{}
	var sawRouteSweep, sawRoutePlanner, sawRouteServe bool
	sawRestart := map[string]bool{}
	for _, rec := range rep.Records {
		if strings.HasPrefix(rec.Name, "figure9/random/") && rec.Workers == 1 {
			sawSweepSerial = true
			if rec.Speedup != 1.0 {
				t.Fatalf("serial sweep speedup %v, want 1.0", rec.Speedup)
			}
		}
		if strings.HasPrefix(rec.Name, "mfp.Build/") {
			sawBuild = true
		}
		if rec.Name == churn.Name()+"/rebuild" {
			sawChurnRebuild = true
		}
		if rec.Name == churn3.Name()+"/rebuild" {
			sawChurn3Rebuild = true
		}
		if rec.Name == churn3.Name()+"/incremental" {
			sawChurn3Incremental = true
			if rec.Speedup <= 0 {
				t.Fatalf("churn3d incremental record lost its speedup: %+v", rec)
			}
		}
		if rec.Name == churn3Big.Name()+"/rebuild" {
			t.Fatalf("rebuild record timed at an infeasible scale: %+v", rec)
		}
		if rec.Name == churn3Big.Name()+"/incremental" {
			sawChurn3BigIncremental = true
			// No rebuild sibling exists, so no speedup can be formed.
			if rec.Speedup != 0 {
				t.Fatalf("incremental-only churn3d record has a speedup: %+v", rec)
			}
		}
		if strings.HasPrefix(rec.Name, "engine3/apply/") {
			sawEngine3Allocs = true
			if rec.Unit != "allocs/event" {
				t.Fatalf("engine3 allocs record unit %q, want allocs/event", rec.Unit)
			}
			if rec.Seconds >= 0.5 {
				t.Fatalf("engine3 steady-state apply allocates %.3f/event, want < 0.5", rec.Seconds)
			}
		}
		for _, c := range sweep {
			if rec.Name == fmt.Sprintf("churn2d/mesh%d/faults%d/events%d/seed%d/per-event", c.Mesh.W, c.Faults, c.Events, c.BaseSeed) {
				sawPerEvent[c.Mesh.W] = true
			}
		}
		if strings.HasPrefix(rec.Name, "engine/heap/") {
			sawEngineBytes = true
			if rec.Unit != "B/component" {
				t.Fatalf("engine heap record unit %q, want B/component", rec.Unit)
			}
		}
		if rec.Name == churn.Name()+"/incremental" {
			sawChurnIncremental = true
			// The hand-filled incremental-vs-rebuild speedup must survive
			// the report pipeline (ComputeSpeedups only knows
			// worker-count baselines).
			if rec.Speedup <= 0 {
				t.Fatalf("churn incremental record lost its speedup: %+v", rec)
			}
		}
		if strings.HasPrefix(rec.Name, "route/sweep/") {
			sawRouteSweep = true
		}
		if strings.HasPrefix(rec.Name, "route/planner/") {
			sawRoutePlanner = true
		}
		if strings.HasPrefix(rec.Name, "route/serve/") {
			sawRouteServe = true
		}
		if strings.HasPrefix(rec.Name, "restart/") {
			sawRestart[rec.Name] = true
		}
		if rec.Seconds <= 0 {
			t.Fatalf("record %q has non-positive time %v", rec.Name, rec.Seconds)
		}
	}
	if !sawSweepSerial || !sawBuild || !sawChurnRebuild || !sawChurnIncremental {
		t.Fatalf("report misses expected workloads: %+v", rep.Records)
	}
	if !sawChurn3Rebuild || !sawChurn3Incremental || !sawChurn3BigIncremental {
		t.Fatalf("report misses churn3d workloads: %+v", rep.Records)
	}
	if !sawEngine3Allocs || !sawEngineBytes {
		t.Fatalf("report misses the engine3 allocs or engine heap counter: %+v", rep.Records)
	}
	if len(sawPerEvent) != len(sweep) {
		t.Fatalf("report has per-event records for meshes %v, want all of %v", sawPerEvent, sweep)
	}
	if !sawRouteSweep || !sawRoutePlanner || !sawRouteServe {
		t.Fatalf("report misses route workloads: %+v", rep.Records)
	}
	for _, cfg := range experiments.RestartLayouts() {
		if !sawRestart[cfg.Label()] {
			t.Fatalf("report misses the %s restart record: %+v", cfg.Name, rep.Records)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := writeBenchReport(path, rep); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := benchfmt.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(rep.Records) {
		t.Fatalf("%d records after round trip, want %d", len(back.Records), len(rep.Records))
	}

	// A report can never regress against itself, and a self-diff has no
	// one-sided or zero-time pairs to skip.
	cmp, err := compareBenchReport(path, rep, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 0 {
		t.Fatalf("self-comparison flagged %+v", cmp.Regressions)
	}
	if len(cmp.Skipped) != 0 {
		t.Fatalf("self-comparison skipped %+v", cmp.Skipped)
	}
}

// After the best-of-passes merge, ComputeSpeedups stamps every Workers==1
// record with 1.0; the strategy-pair recompute must restore the
// rebuild/incremental ratio from the merged minima and clear the stamp off
// incremental-only records, which have no rebuild sibling to pair with.
func TestRecomputeStrategySpeedups(t *testing.T) {
	rep := benchfmt.New("go", 1)
	rep.Add(benchfmt.Record{Name: "churn3d/small/rebuild", Workers: 1, Seconds: 0.8})
	rep.Add(benchfmt.Record{Name: "churn3d/small/incremental", Workers: 1, Seconds: 0.2})
	rep.Add(benchfmt.Record{Name: "churn3d/huge/incremental", Workers: 1, Seconds: 0.5})
	rep.ComputeSpeedups()
	recomputeStrategySpeedups(rep)
	want := map[string]float64{
		"churn3d/small/rebuild":     1.0,
		"churn3d/small/incremental": 4.0,
		"churn3d/huge/incremental":  0,
	}
	for _, rec := range rep.Records {
		if rec.Speedup != want[rec.Name] {
			t.Fatalf("%s speedup %v, want %v", rec.Name, rec.Speedup, want[rec.Name])
		}
	}
}

// testChurn3Config is a tiny, fast 3-D churn scale for bench tests.
func testChurn3Config() experiments.Churn[grid3.Coord, grid3.Mesh] {
	return experiments.Churn3D(8, 6, 16, 5)
}

// testChurn3InfeasibleConfig is the smallest scale past the rebuild
// feasibility bound: the sweep must time its incremental arm alone.
func testChurn3InfeasibleConfig() experiments.Churn[grid3.Coord, grid3.Mesh] {
	return experiments.Churn3D(65, 6, 8, 5)
}

// testRouteConfig is a tiny, fast route scale for bench tests.
func testRouteConfig() experiments.RouteConfig {
	return experiments.RouteConfig{
		MeshSize:    20,
		FaultCounts: []int{4, 8},
		Trials:      1,
		Model:       fault.Clustered,
		BaseSeed:    5,
		Messages:    40,
		Margin:      3,
	}
}

// The record name must encode the full workload identity, so sweeps over
// different fault ladders or seeds can never be cross-compared.
func TestFaultsLabel(t *testing.T) {
	cases := map[string][]int{
		"100..800x8": {100, 200, 300, 400, 500, 600, 700, 800},
		"10..30x3":   {10, 20, 30},
		"10,20,40":   {10, 20, 40},
		"5,3":        {5, 3},
		"7":          {7},
	}
	for want, counts := range cases {
		if got := faultsLabel(counts); got != want {
			t.Fatalf("faultsLabel(%v) = %q, want %q", counts, got, want)
		}
	}
}

// timeIt must calibrate very short workloads up to the minimum sample so
// -bench-compare is not gating on timer noise.
func TestTimeItCalibrates(t *testing.T) {
	secs, iters := timeIt(1, func() {})
	if iters <= 1 {
		t.Fatalf("no-op workload ran only %d iterations", iters)
	}
	if secs < 0 {
		t.Fatalf("negative mean %v", secs)
	}
}

func TestRunBenchSweepRejectsUnknownFigure(t *testing.T) {
	cfg := experiments.Config{MeshSize: 10, FaultCounts: []int{5}, Trials: 1, BaseSeed: 1}
	churn := experiments.Churn2D(10, 2, 4, 1)
	if _, err := runBenchSweep([]fault.Model{fault.Random}, []int{12}, cfg, churn,
		[]experiments.Churn[grid3.Coord, grid3.Mesh]{testChurn3Config()}, nil, testRouteConfig(), 1, 0); err == nil {
		t.Fatal("figure 12 should be rejected")
	}
}

// The -workers flag caps the timed pool sizes in -bench-json mode.
func TestRunBenchSweepHonorsWorkersCap(t *testing.T) {
	cfg := experiments.Config{MeshSize: 15, FaultCounts: []int{5}, Trials: 1, BaseSeed: 3}
	churn := experiments.Churn2D(15, 2, 4, 3)
	rep, err := runBenchSweep([]fault.Model{fault.Random}, []int{9}, cfg, churn,
		[]experiments.Churn[grid3.Coord, grid3.Mesh]{testChurn3Config()}, nil, testRouteConfig(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rep.Records {
		if rec.Workers > 2 {
			t.Fatalf("record %q timed workers=%d despite cap 2", rec.Name, rec.Workers)
		}
	}
}

func TestCompareBenchReportMissingBaseline(t *testing.T) {
	rep := benchfmt.New("go", 1)
	if _, err := compareBenchReport(filepath.Join(t.TempDir(), "nope.json"), rep, 1.3); err == nil {
		t.Fatal("missing baseline file should error")
	}
}

func TestRunChurnReport(t *testing.T) {
	var buf strings.Builder
	cfg := experiments.Churn2D(24, 8, 30, 4)
	if err := runChurnReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{cfg.Name(), "speedup:", "differential check:     OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("churn report misses %q:\n%s", want, out)
		}
	}
}

func TestRunChurn3Report(t *testing.T) {
	var buf strings.Builder
	cfg := testChurn3Config()
	if err := runChurnReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{cfg.Name(), "speedup:", "differential check:     OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("churn3d report misses %q:\n%s", want, out)
		}
	}
}

// Past the rebuild feasibility bound the report must skip the rebuild arm
// (and the speedup line) and still differentially check the final state
// against one batch build.
func TestRunChurn3ReportInfeasibleRebuild(t *testing.T) {
	var buf strings.Builder
	cfg := testChurn3InfeasibleConfig()
	if err := runChurnReport(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{cfg.Name(), "skipped (infeasible", "differential check:     OK"} {
		if !strings.Contains(out, want) {
			t.Fatalf("infeasible churn3d report misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "speedup:") {
		t.Fatalf("infeasible churn3d report printed a speedup:\n%s", out)
	}
}
