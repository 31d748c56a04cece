package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/experiments"
)

// runMainEnv marks a subprocess of the test binary that runs mfpsim's main
// with the subprocess's arguments instead of the tests.
const runMainEnv = "MFPSIM_TEST_RUN_MAIN"

// TestMain shortens timeIt's samples for every test: the tests check what
// a report holds, not what it reads. Under runMainEnv it runs main
// instead, so a test can drive the real command line.
func TestMain(m *testing.M) {
	minSample = time.Millisecond
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var (
	cliReportOnce sync.Once
	cliReport     *benchfmt.Report
	cliReportErr  error
)

// benchCLIReport runs `mfpsim -bench-json` with `make bench-baseline`'s
// flags (BENCH_TRIALS=5) at GOMAXPROCS=2, once per test binary, and
// returns the report it wrote.
func benchCLIReport(t *testing.T) *benchfmt.Report {
	t.Helper()
	cliReportOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mfpsim-bench-cli-")
		if err != nil {
			cliReportErr = err
			return
		}
		defer os.RemoveAll(dir)
		out := filepath.Join(dir, "BENCH_sweep.json")
		cmd := exec.Command(os.Args[0], "-bench-json", "-trials", "5", "-bench-out", out)
		cmd.Env = append(os.Environ(), runMainEnv+"=1", "GOMAXPROCS=2")
		if msg, err := cmd.CombinedOutput(); err != nil {
			cliReportErr = fmt.Errorf("mfpsim -bench-json: %v\n%s", err, msg)
			return
		}
		f, err := os.Open(out)
		if err != nil {
			cliReportErr = err
			return
		}
		defer f.Close()
		cliReport, cliReportErr = benchfmt.ReadJSON(f)
	})
	if cliReportErr != nil {
		t.Fatal(cliReportErr)
	}
	return cliReport
}

// TestBenchJSONPinsGOMAXPROCS: -bench-json runs at GOMAXPROCS=1 whatever
// the environment asks for, so every report is stamped like the baseline.
func TestBenchJSONPinsGOMAXPROCS(t *testing.T) {
	if got := benchCLIReport(t).GOMAXPROCS; got != 1 {
		t.Fatalf("report stamped gomaxprocs %d under GOMAXPROCS=2, want 1", got)
	}
}

// TestBenchIdentities pins the record set: the names `make bench-baseline`
// emits must be exactly the committed baseline's. benchfmt only logs a
// record missing on one side as new or retired, so without this test a
// record could go ungated, or a renamed one retire, with the gate green.
// It also pins each default scenario's event stream by digest, so a
// record keeping its name cannot silently time a different workload.
func TestBenchIdentities(t *testing.T) {
	f, err := os.Open("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := benchfmt.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	names := func(rep *benchfmt.Report) string {
		var out []string
		for _, rec := range rep.Records {
			out = append(out, rec.Name)
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	if got, want := names(benchCLIReport(t)), names(baseline); got != want {
		t.Fatalf("record names\n%s\nbaseline has\n%s", got, want)
	}

	digests := map[string]string{}
	digests[experiments.DefaultChurn().Name()] = eventDigest(experiments.DefaultChurn().Sequence())
	for _, c := range experiments.ChurnMeshSweep() {
		digests[c.Name()] = eventDigest(c.Sequence())
	}
	for _, size := range []int{12, 64, 128} {
		c := experiments.DefaultChurn3At(size)
		digests[c.Name()] = eventDigest(c.Sequence())
	}
	wantDigests := map[string]string{
		"churn/mesh100/faults100/events200/seed1":   "b862fdea7c9f704c",
		"churn/mesh512/faults100/events200/seed1":   "b3784cac88d326fb",
		"churn/mesh2048/faults100/events200/seed1":  "d078e728a7967e40",
		"churn3d/mesh12/faults20/events200/seed1":   "dee70b4c3ce80240",
		"churn3d/mesh64/faults200/events160/seed1":  "5ff3ab6b52644a54",
		"churn3d/mesh128/faults256/events160/seed1": "94c6b078484d0dd4",
	}
	for name, d := range digests {
		if wantDigests[name] != d {
			t.Errorf("%s: event stream digest %s, want %s", name, d, wantDigests[name])
		}
	}
	if len(digests) != len(wantDigests) {
		t.Errorf("%d default scenarios, want %d", len(digests), len(wantDigests))
	}
}

// eventDigest hashes an event stream's rendering, one event per line.
func eventDigest[E fmt.Stringer](events []E) string {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintln(h, ev.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
