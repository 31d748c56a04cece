package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/pool"
	"repro/internal/routing"
	"repro/internal/stats"
)

// RouteConfig describes one route-overhead sweep: the detour cost of
// extended e-cube routing around the MFP regions as fault density grows —
// the evaluation the paper's Section 2.2 routing exists for. Each
// (faultCount, trial) cell injects a fresh fault set, feeds it through the
// incremental engine, builds a routing.Planner from the snapshot (the same
// preparation path mfpd's route endpoint uses), and routes a fixed batch
// of seeded messages.
type RouteConfig struct {
	// MeshSize is the side length n of the n×n mesh.
	MeshSize int
	// FaultCounts are the swept numbers of faulty nodes.
	FaultCounts []int
	// Trials is the number of independent fault sets per point.
	Trials int
	// Model selects the fault distribution model.
	Model fault.Model
	// BaseSeed derives per-trial seeds; a fixed base makes sweeps
	// reproducible.
	BaseSeed int64
	// Workers bounds the sweep's worker pool, with the harness convention:
	// 0 means one per CPU, 1 forces the serial path. The produced tables
	// are identical for every value.
	Workers int
	// Messages is the number of routed source/destination pairs per cell.
	Messages int
	// Margin keeps injected faults this many nodes off the mesh border, so
	// detour rings stay inside the mesh (the standard assumption of the
	// fault-ring literature).
	Margin int
}

// DefaultRoute returns the route sweep matching the paper's evaluation
// setting: a 100×100 mesh, 100..800 faults, with a routed message batch
// per cell.
func DefaultRoute(model fault.Model, trials int) RouteConfig {
	return RouteConfig{
		MeshSize:    100,
		FaultCounts: []int{100, 200, 300, 400, 500, 600, 700, 800},
		Trials:      trials,
		Model:       model,
		BaseSeed:    1,
		Messages:    400,
		Margin:      3,
	}
}

// Name identifies the sweep's workload for benchmark records: it encodes
// every knob that changes the produced numbers.
func (c RouteConfig) Name() string {
	return fmt.Sprintf("route/sweep/%s/mesh%d/trials%d/msgs%d/seed%d",
		c.Model, c.MeshSize, c.Trials, c.Messages, c.BaseSeed)
}

func (c RouteConfig) validate() {
	if c.MeshSize <= 0 || c.Trials <= 0 || len(c.FaultCounts) == 0 ||
		c.Messages <= 0 || c.Workers < 0 || c.Margin < 0 || 2*c.Margin >= c.MeshSize {
		panic(fmt.Sprintf("experiments: invalid route config %+v", c))
	}
	if err := c.Check(); err != nil {
		panic("experiments: " + err.Error())
	}
}

// Check reports whether every swept fault count fits the margin-shrunken
// inner mesh faults are injected into. Commands validate with it before a
// sweep, so an oversized count fails with a clean message instead of a
// mid-sweep panic.
func (c RouteConfig) Check() error {
	inner := c.MeshSize - 2*c.Margin
	for _, n := range c.FaultCounts {
		if n > inner*inner {
			return fmt.Errorf("%d faults exceed the %dx%d inner mesh (mesh %d, margin %d)",
				n, inner, inner, c.MeshSize, c.Margin)
		}
	}
	return nil
}

func (c RouteConfig) seedFor(faults, trial int) int64 {
	return c.BaseSeed + int64(faults)*1_000_003 + int64(trial)
}

// routeSeries are the sweep's observed metrics, per swept fault count:
//
//	routable%  — message pairs whose endpoints both stay enabled
//	delivered% — pairs actually delivered (routable minus routing failures)
//	stretch    — delivered hops over the Manhattan distance
//	abnormal%  — hops spent rounding fault polygons, over all hops
var routeSeries = []string{"routable%", "delivered%", "stretch", "abnormal%"}

// RouteSweep runs the route-overhead sweep and returns the table of
// per-fault-count means. Cells fan out to the worker pool and merge in
// canonical order, so the table is byte-identical at any Workers value.
func RouteSweep(cfg RouteConfig) *stats.Table {
	cfg.validate()
	m := grid.New(cfg.MeshSize, cfg.MeshSize)

	type cellRef struct{ point, trial int }
	cells := make([]cellRef, 0, len(cfg.FaultCounts)*cfg.Trials)
	for p := range cfg.FaultCounts {
		for t := 0; t < cfg.Trials; t++ {
			cells = append(cells, cellRef{p, t})
		}
	}
	values := make([][]float64, len(cells))
	pool.ForEach(len(cells), cfg.Workers, func(i int) {
		ref := cells[i]
		n := cfg.FaultCounts[ref.point]
		values[i] = routeCell(m, cfg, n, cfg.seedFor(n, ref.trial))
	})

	series := make([]*stats.Series, len(routeSeries))
	for i, name := range routeSeries {
		series[i] = stats.NewSeries(name)
	}
	for i, ref := range cells {
		x := cfg.FaultCounts[ref.point]
		for si, v := range values[i] {
			series[si].Observe(x, v)
		}
	}
	return &stats.Table{XLabel: "faults", Series: series}
}

// routeCell is one (faultCount, trial) cell: inject, build the snapshot
// planner, route the message batch serially (the sweep pool already owns
// the parallelism), and fold the metrics.
func routeCell(m grid.Mesh, cfg RouteConfig, n int, seed int64) []float64 {
	faults := fault.InjectWithMargin(m, cfg.Model, seed, n, cfg.Margin)
	e, err := engine.New(m)
	if err != nil {
		panic(fmt.Sprintf("experiments: route cell engine: %v", err))
	}
	snap, err := e.Load(faults)
	if err != nil {
		panic(fmt.Sprintf("experiments: route cell snapshot: %v", err))
	}
	p := routing.NewPlanner(snap)

	rng := rand.New(rand.NewSource(seed))
	attempted, routable, delivered := 0, 0, 0
	hops, abnormal, dist := 0, 0, 0
	for i := 0; i < cfg.Messages; i++ {
		src := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		dst := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if src == dst {
			continue
		}
		attempted++
		if p.Blocked(src) || p.Blocked(dst) {
			continue
		}
		routable++
		r, err := p.Route(src, dst)
		if err != nil {
			continue
		}
		delivered++
		hops += r.Length()
		abnormal += r.AbnormalHops
		dist += m.Dist(src, dst)
	}
	stretch := 0.0
	if dist > 0 {
		stretch = float64(hops) / float64(dist)
	}
	abnormalPct := 0.0
	if hops > 0 {
		abnormalPct = 100 * float64(abnormal) / float64(hops)
	}
	return []float64{
		100 * float64(routable) / float64(max(attempted, 1)),
		100 * float64(delivered) / float64(max(attempted, 1)),
		stretch,
		abnormalPct,
	}
}

// PlannerChurnName names the planner-rebuild fixture's bench records.
const PlannerChurnName = "route/planner/mesh256/faults1300/clustered/seed1"

// PlannerChurn returns the planner-rebuild fixture at e2ebench's route2d
// scale: a 256×256 mesh holding 1300 clustered faults kept 8 nodes off the
// border (layout seed 1), loaded into an engine, and the snapshot one
// event batch later, the batch clearing the median fault in index order.
// Base's planner is what a shard has memoized when the batch lands; next's
// is what the following route query builds from it.
func PlannerChurn() (base, next *engine.Snapshot, err error) {
	m := grid.New(256, 256)
	faults := fault.InjectWithMargin(m, fault.Clustered, 1, 1300, 8)
	e, err := engine.New(m)
	if err != nil {
		return nil, nil, err
	}
	if base, err = e.Load(faults); err != nil {
		return nil, nil, err
	}
	cs := faults.Coords()
	_, next, err = e.Apply([]engine.Event{{Op: engine.Clear, Node: cs[len(cs)/2]}})
	return base, next, err
}
