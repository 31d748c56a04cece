package main

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// streamBytes serializes everything a run sends for a workload and seed:
// the prep batches, the open-loop stream with due times, and the head of
// the closed-loop stream.
func streamBytes(wl *workload, seed int64, open time.Duration, closed int) []byte {
	g := newGenerator(wl, seed)
	var b bytes.Buffer
	write := func(r request) { fmt.Fprintf(&b, "%d %s %s %s\n", r.Due, r.Method, r.Path, r.Body) }
	write(g.eventsRequest(g.baseEvents()))
	for i := 0; i < wl.PrepBatches; i++ {
		write(g.eventsRequest(g.nextBatch()))
	}
	for _, r := range g.openLoop(open) {
		write(r)
	}
	for _, r := range g.closedLoop(closed) {
		write(r)
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames() {
		wl := workloads[name]
		a := streamBytes(wl, 7, 2*time.Second, 200)
		b := streamBytes(wl, 7, 2*time.Second, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request streams", name)
		}
		if bytes.Equal(a, streamBytes(wl, 8, 2*time.Second, 200)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request stream", name)
		}
	}
}

func TestOpenLoopOffersTheConfiguredRates(t *testing.T) {
	wl := workloads["route2d"]
	const secs = 100
	counts := map[op]int{}
	for _, r := range newGenerator(wl, 3).openLoop(secs * time.Second) {
		counts[r.Op]++
	}
	for o := op(0); o < numOps; o++ {
		want := wl.Rates[o] * secs
		if got := float64(counts[o]); got < 0.8*want || got > 1.2*want {
			t.Errorf("%s: %v arrivals in %ds, want about %v", o, got, secs, want)
		}
	}
}

// Every window of the closed-loop stream as long as the mix's total rate
// holds each op exactly its rate's number of times.
func TestClosedLoopInterleavesTheMixExactly(t *testing.T) {
	for _, name := range workloadNames() {
		wl := workloads[name]
		total := 0
		for _, r := range wl.Rates {
			total += int(r)
		}
		reqs := newGenerator(wl, 3).closedLoop(3 * total)
		for w := 0; w < 3; w++ {
			var counts [numOps]int
			for _, r := range reqs[w*total : (w+1)*total] {
				counts[r.Op]++
			}
			for o := op(0); o < numOps; o++ {
				if counts[o] != int(wl.Rates[o]) {
					t.Errorf("%s window %d: %d %s requests, want %v", name, w, counts[o], o, wl.Rates[o])
				}
			}
		}
	}
}

func components2(w, h int, faults [][3]int) int {
	set := nodeset.New(grid.New(w, h))
	for _, c := range faults {
		set.Add(grid.XY(c[0], c[1]))
	}
	return len(kernel.Regions(set))
}

// The generator adds only next to base faults and clears only nodes it
// added, so however long it runs the fault count stays within
// [base, base+2*Churn] and the component count cannot grow past the base
// layout's.
func TestPopulationStaysInBand(t *testing.T) {
	wl := &workload{Name: "band", W: 96, H: 96, BaseFaults: 180, Margin: 2, Churn: 30}
	g := newGenerator(wl, 5)
	base := g.FaultSet()
	baseComps := components2(wl.W, wl.H, base)
	baseSet := map[[3]int]bool{}
	for _, c := range base {
		baseSet[c] = true
	}
	minComps := baseComps
	for i := 0; i < 20000; i++ {
		for _, e := range g.nextBatch() {
			if !e.add && baseSet[e.c] {
				t.Fatalf("batch %d clears base fault %v", i, e.c)
			}
		}
		if n := g.Faults(); n < len(base) || n > len(base)+2*wl.Churn {
			t.Fatalf("after %d batches: %d faults, outside [%d, %d]", i, n, len(base), len(base)+2*wl.Churn)
		}
		if i%1000 == 999 {
			faults := g.FaultSet()
			if len(faults) != g.Faults() {
				t.Fatalf("fault set has %d nodes, count says %d", len(faults), g.Faults())
			}
			comps := components2(wl.W, wl.H, faults)
			if comps > baseComps {
				t.Fatalf("after %d batches: %d components, base layout has %d", i, comps, baseComps)
			}
			minComps = min(minComps, comps)
		}
	}
	if minComps < baseComps*85/100 {
		t.Errorf("components fell to %d of the base layout's %d", minComps, baseComps)
	}
}

func TestBatchesChangeStateAndNeverRepeatANode(t *testing.T) {
	for _, name := range workloadNames() {
		wl := workloads[name]
		g := newGenerator(wl, 11)
		faulty := map[[3]int]bool{}
		for _, c := range g.FaultSet() {
			faulty[c] = true
		}
		for i := 0; i < 500; i++ {
			seen := map[[3]int]bool{}
			batch := g.nextBatch()
			if len(batch) < 1 || len(batch) > 8 {
				t.Fatalf("%s: batch of %d events", name, len(batch))
			}
			for _, e := range batch {
				if seen[e.c] || faulty[e.c] == e.add || !g.inner(e.c) {
					t.Fatalf("%s: batch %d: event %+v repeats a node, changes nothing or leaves the margin", name, i, e)
				}
				seen[e.c] = true
				faulty[e.c] = e.add
			}
		}
		got := g.FaultSet()
		var want [][3]int
		for c, f := range faulty {
			if f {
				want = append(want, c)
			}
		}
		sort.Slice(want, func(i, j int) bool { return g.index(want[i]) < g.index(want[j]) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: generator fault set diverged from its own events", name)
		}
	}
}
