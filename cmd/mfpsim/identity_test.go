package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchfmt"
	"repro/internal/experiments"
	"repro/internal/fault"
)

// identityPrefixes select the baseline records the churn scenarios, the
// engine allocs records and the route-serving workloads produce.
var identityPrefixes = []string{"churn/", "churn3d/", "churn2d/", "engine/apply/", "engine3/apply/", "route/"}

// TestBenchIdentities pins the workload identities of the churn, allocs
// and route records. benchfmt only logs a record that vanished from a report as
// retired, so a renamed record would pass the bench gate without ever
// being compared; this test fails instead. It also pins each default
// scenario's event stream by digest, so a record keeping its name cannot
// silently time a different workload.
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
	var want []string
	for _, rec := range baseline.Records {
		for _, p := range identityPrefixes {
			if strings.HasPrefix(rec.Name, p) {
				want = append(want, rec.Name)
			}
		}
	}

	rep := benchfmt.New("go", 1)
	for _, c := range experiments.ChurnMeshSweep() {
		if err := churnPerEventRecord(rep, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := engineAllocsRecords(rep); err != nil {
		t.Fatal(err)
	}
	// The rebuild-vs-incremental records are named by churnRecords: the
	// scenario's name with a strategy suffix, the rebuild one only where
	// it is feasible.
	got := []string{
		experiments.DefaultChurn().Name() + "/rebuild",
		experiments.DefaultChurn().Name() + "/incremental",
	}
	for _, size := range []int{12, 64, 128} {
		c := experiments.DefaultChurn3At(size)
		if c.RebuildFeasible() {
			got = append(got, c.Name()+"/rebuild")
		}
		got = append(got, c.Name()+"/incremental")
	}
	for _, rec := range rep.Records {
		got = append(got, rec.Name)
	}
	// The route records at `make bench-baseline`'s scale (BENCH_TRIALS=5).
	route := routeRecordNames(experiments.DefaultRoute(fault.Clustered, 5))
	got = append(got, route.sweep, route.planner, route.serve, route.measure, route.measureAllocs,
		experiments.PlannerChurnName+"/build", experiments.PlannerChurnName+"/next")
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("record names\n%s\nbaseline has\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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
