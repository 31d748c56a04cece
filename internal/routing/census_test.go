package routing

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/grid"
	"repro/internal/mfp"
	"repro/internal/nodeset"
)

// exhaustiveLarge adds the 4x4 box to the route census (make
// exhaustive-check); tier-1 walks the 3x3 box only.
var exhaustiveLarge = flag.Bool("exhaustive-large", false, "also take the route census of every fault set of a 4x4 box")

// censusModel turns a fault set into the blocked set the router detours
// around.
type censusModel struct {
	name    string
	blocked func(grid.Mesh, *nodeset.Set) *nodeset.Set
}

var censusModels = []censusModel{
	{"MFP", func(m grid.Mesh, f *nodeset.Set) *nodeset.Set { return mfp.Build(m, f).Disabled }},
	{"FB", func(m grid.Mesh, f *nodeset.Set) *nodeset.Set { return block.Build(m, f).Unsafe }},
}

// censusResult is what a census counts over all fault sets of a box.
type censusResult struct {
	sets      int // fault sets walked
	cyclic    int // sets whose channel dependency graph has a cycle
	delivered int // routes delivered
}

// routeCensus takes every fault set of the box x,y in [lo, hi] of an n×n
// mesh, blocks it under model, and routes every ordered pair of distinct
// unblocked nodes. Every route must be delivered, never enter a blocked
// node, be no shorter than the Manhattan distance and never take an EW or
// WE hop after an NS or SN hop. It counts the fault sets whose channel
// dependency graph over all those routes has a cycle.
func routeCensus(n, lo, hi int, model censusModel) (censusResult, error) {
	m := grid.New(n, n)
	var nodes, box []grid.Coord
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c := grid.XY(x, y)
			nodes = append(nodes, c)
			if x >= lo && x <= hi && y >= lo && y <= hi {
				box = append(box, c)
			}
		}
	}
	sets := 1 << len(box)
	workers := runtime.GOMAXPROCS(0)
	results := make([]censusResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			for mask := w; mask < sets; mask += workers {
				faults := nodeset.New(m)
				for i, c := range box {
					if mask&(1<<i) != 0 {
						faults.Add(c)
					}
				}
				blocked := model.blocked(m, faults)
				p := NewPlannerForBlocked(m, blocked)
				g := NewDependencyGraph()
				for _, src := range nodes {
					for _, dst := range nodes {
						if src == dst || blocked.Has(src) || blocked.Has(dst) {
							continue
						}
						r, err := p.Route(src, dst)
						if err == nil {
							err = checkCensusRoute(m, blocked, r)
						}
						if err != nil {
							errs[w] = fmt.Errorf("%s fault set %#x: %v->%v: %w", model.name, mask, src, dst, err)
							return
						}
						g.AddRoute(r)
						res.delivered++
					}
				}
				res.sets++
				if g.HasCycle() {
					res.cyclic++
				}
			}
		}(w)
	}
	wg.Wait()
	var total censusResult
	for w, r := range results {
		if errs[w] != nil {
			return total, errs[w]
		}
		total.sets += r.sets
		total.cyclic += r.cyclic
		total.delivered += r.delivered
	}
	return total, nil
}

// checkCensusRoute checks one delivered route's hops.
func checkCensusRoute(m grid.Mesh, blocked *nodeset.Set, r *Route) error {
	if r.Length() < m.Dist(r.Src, r.Dst) {
		return fmt.Errorf("length %d below the Manhattan distance %d", r.Length(), m.Dist(r.Src, r.Dst))
	}
	column := false
	for i, h := range r.Hops {
		if blocked.Has(h.To) {
			return fmt.Errorf("hop %d enters blocked node %v", i, h.To)
		}
		switch h.Type {
		case NS, SN:
			column = true
		case EW, WE:
			if column {
				return fmt.Errorf("hop %d is %v after a column hop", i, h.Type)
			}
		}
	}
	return nil
}

// TestRouteCensus routes all pairs around every fault set of a box, once
// blocked by minimum faulty polygons and once by faulty blocks. Every
// route is delivered and well formed under both models, but only the
// rectangular blocks keep the four-virtual-channel dependency graph
// acyclic: around polygons it has a cycle in about a third of the 3x3 sets
// (and 38,922 of the 65,536 4x4 sets), so the scheme's deadlock freedom
// holds for blocks only.
func TestRouteCensus(t *testing.T) {
	cases := []struct {
		name      string
		n, lo, hi int
		large     bool
		cyclic    map[string]int
		delivered map[string]int
	}{
		{
			name: "3x3", n: 7, lo: 2, hi: 4,
			cyclic:    map[string]int{"MFP": 166, "FB": 0},
			delivered: map[string]int{"MFP": 973296, "FB": 895028},
		},
		{
			name: "4x4", n: 8, lo: 2, hi: 5, large: true,
			cyclic:    map[string]int{"MFP": 38922, "FB": 0},
			delivered: map[string]int{"MFP": 190820832, "FB": 164153308},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && !*exhaustiveLarge {
				t.Skip("run with -args -exhaustive-large (make exhaustive-check)")
			}
			for _, model := range censusModels {
				res, err := routeCensus(tc.n, tc.lo, tc.hi, model)
				if err != nil {
					t.Fatal(err)
				}
				side := tc.hi - tc.lo + 1
				if want := 1 << (side * side); res.sets != want {
					t.Fatalf("%s: walked %d fault sets, want %d", model.name, res.sets, want)
				}
				if res.cyclic != tc.cyclic[model.name] {
					t.Errorf("%s: dependency graph cyclic in %d of %d fault sets, want %d",
						model.name, res.cyclic, res.sets, tc.cyclic[model.name])
				}
				if want, ok := tc.delivered[model.name]; ok && res.delivered != want {
					t.Errorf("%s: %d routes delivered, want %d", model.name, res.delivered, want)
				}
				t.Logf("%s: %d fault sets, %d with a cyclic dependency graph, %d routes delivered",
					model.name, res.sets, res.cyclic, res.delivered)
			}
		})
	}
}
