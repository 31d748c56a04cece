// Command routesim routes message batches across a faulty mesh with the
// extended e-cube algorithm of the paper's Section 2.2 and reports delivery
// statistics and the deadlock check, comparing the fault-region models: the
// MFP model disables fewer nodes, so more source/destination pairs are
// routable and detours are shorter.
//
// Routing runs on prepared routing.Planner values — the MFP row on a
// planner built straight from an engine snapshot (the same preparation
// path mfpd's route endpoint serves from), the FB and FP rows on planners
// over their models' blocked sets — and each message batch fans out to a
// bounded worker pool (-workers). Results are identical for every worker
// count.
//
// Usage examples:
//
//	routesim                                    # defaults: 32x32, 40 faults
//	routesim -mesh 64 -faults 120 -messages 5000
//	routesim -dist random -seed 9 -workers 4
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/routing"
)

func main() {
	size := flag.Int("mesh", 32, "mesh side length")
	n := flag.Int("faults", 40, "number of faults (kept off the border)")
	dist := flag.String("dist", "clustered", "fault distribution: random or clustered")
	seed := flag.Int64("seed", 1, "random seed")
	messages := flag.Int("messages", 2000, "messages to route per model")
	workers := flag.Int("workers", 0, "worker-pool bound for routing batches (0 = one per CPU, 1 = serial)")
	flag.Parse()

	fm, err := fault.ParseModel(*dist)
	if err != nil {
		fatal(err)
	}
	if *workers < 0 {
		fatal(fmt.Errorf("-workers must be >= 0, got %d", *workers))
	}
	m := grid.New(*size, *size)
	// Keep regions away from the border: the ring-based detour needs an
	// in-mesh boundary (the standard assumption of the literature).
	const margin = 3
	if *size <= 2*margin {
		fatal(fmt.Errorf("-mesh must exceed %d (the fault-injection margin)", 2*margin))
	}
	if inner := *size - 2*margin; *n > inner*inner {
		fatal(fmt.Errorf("-faults %d exceeds the %dx%d inner mesh (mesh %d minus margin %d)",
			*n, inner, inner, *size, margin))
	}
	faults := fault.InjectWithMargin(m, fm, *seed, *n, margin)

	// FB and FP come from the batch constructions; the MFP planner is built
	// from a live engine snapshot, reusing its cached polygons.
	c := core.Construct(m, faults, core.Options{})
	fb := block.Build(m, faults)
	e, err := engine.New(m)
	if err != nil {
		fatal(err)
	}
	snap, err := e.Load(faults)
	if err != nil {
		fatal(err)
	}

	// One shared seeded pair batch: every model routes the same messages.
	rng := rand.New(rand.NewSource(*seed))
	queries := make([]routing.Query, 0, *messages)
	for i := 0; i < *messages; i++ {
		src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if src == dst {
			continue
		}
		queries = append(queries, routing.Query{Src: src, Dst: dst})
	}

	fmt.Printf("%v, %d faults (%s, seed %d), %d messages per model\n\n",
		m, *n, fm, *seed, len(queries))
	fmt.Printf("%-6s %10s %10s %12s %12s %10s %8s\n",
		"model", "disabled", "routable%", "delivered%", "avg stretch", "abnormal%", "CDG")
	run(m, "FB", routing.NewPlannerForBlocked(m, fb.Unsafe), queries, *workers)
	run(m, "FP", routing.NewPlannerForBlocked(m, c.SubMinimum.Disabled), queries, *workers)
	run(m, "MFP", routing.NewPlanner(snap), queries, *workers)
	fmt.Println("\nstretch = hops / Manhattan distance; abnormal% = hops spent rounding polygons.")
	fmt.Println("CDG = sampled channel dependency graph acyclic (deadlock check; see routing docs).")
}

func run(m grid.Mesh, name string, p *routing.Planner, queries []routing.Query, workers int) {
	results := p.RouteAll(queries, workers)
	g := routing.NewDependencyGraph()
	attempted, routable, delivered, hops, abnormal, dist := len(queries), 0, 0, 0, 0, 0
	for i, res := range results {
		q := queries[i]
		if p.Blocked(q.Src) || p.Blocked(q.Dst) {
			continue // an endpoint is disabled under this model
		}
		routable++
		if res.Err != nil {
			continue
		}
		r := res.Route
		delivered++
		hops += r.Length()
		abnormal += r.AbnormalHops
		dist += m.Dist(q.Src, q.Dst)
		g.AddRoute(r)
	}
	stretch := 0.0
	if dist > 0 {
		stretch = float64(hops) / float64(dist)
	}
	cdg := "acyclic"
	if g.HasCycle() {
		cdg = "cyclic"
	}
	fmt.Printf("%-6s %10d %9.1f%% %11.1f%% %12.3f %9.1f%% %8s\n",
		name,
		p.BlockedCount(),
		100*float64(routable)/float64(max(attempted, 1)),
		100*float64(delivered)/float64(max(attempted, 1)),
		stretch,
		100*float64(abnormal)/float64(max(hops, 1)),
		cdg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "routesim:", err)
	os.Exit(2)
}
