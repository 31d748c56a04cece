package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
)

// Churn describes a fault arrival/repair process on an n×n (2-D) or n×n×n
// (3-D) mesh: the scenario behind the incremental-vs-full-rebuild
// comparison. The mesh first accumulates Faults faults (the warm-up
// arrivals), then alternates randomly between arrivals and repairs for
// Events steps, holding the fault count near the steady-state target. The
// whole sequence is a deterministic function of the scenario, so timing
// runs, differential tests and archived benchmark records all replay the
// identical stream. Churn2D and Churn3D make one.
type Churn[C any, T kernel.Topology[C]] struct {
	// Mesh is the n×n or n×n×n mesh.
	Mesh T
	// Faults is the steady-state fault count (the paper's 1% density on a
	// 100×100 mesh is Faults: 100).
	Faults int
	// Events is the number of churn steps after warm-up.
	Events int
	// BaseSeed makes the event stream reproducible.
	BaseSeed int64

	dim *churnDim[C, T]
}

// churnDim holds what the scenario needs of one dimension: the record name
// prefix, the engine and the from-scratch construction.
type churnDim[C any, T kernel.Topology[C]] struct {
	prefix    string
	newEngine func(T) (*kernel.Engine[C, T], error)
	rebuild   func(*kernel.Set[C, T]) kernel.Reference[C, T]
}

var (
	churn2D = &churnDim[grid.Coord, grid.Mesh]{"churn", engine.New, core.Reference}
	churn3D = &churnDim[grid3.Coord, grid3.Mesh]{"churn3d", engine3.New, mfp3d.Reference}
)

// Churn2D returns the churn scenario on a size×size mesh, replayed through
// internal/engine and checked against core.Construct.
func Churn2D(size, faults, events int, seed int64) Churn[grid.Coord, grid.Mesh] {
	return Churn[grid.Coord, grid.Mesh]{grid.New(size, size), faults, events, seed, churn2D}
}

// Churn3D returns the churn scenario on a size×size×size mesh, replayed
// through internal/engine3 and checked against mfp3d.Build: the paper's
// "higher dimension meshes" future work run under churn.
func Churn3D(size, faults, events int, seed int64) Churn[grid3.Coord, grid3.Mesh] {
	return Churn[grid3.Coord, grid3.Mesh]{grid3.New(size, size, size), faults, events, seed, churn3D}
}

// DefaultChurn is the benchmark scenario of the repository's churn BENCH
// records: 1% steady-state fault density on the paper's 100×100 mesh, 200
// churn events. Keep it fixed — the record name derived from it is the
// workload's identity for -bench-compare.
func DefaultChurn() Churn[grid.Coord, grid.Mesh] { return Churn2D(100, 100, 200, 1) }

// ChurnMeshSweep is the mesh-size sweep of the BENCH records: the default
// churn's fault count and event count on 100², 512² and 2048² meshes. At
// a fixed fault count the components stay the same size as the mesh
// grows, so the per-event cost across the sweep shows how much of it
// still scales with the mesh rather than with the touched component.
func ChurnMeshSweep() []Churn[grid.Coord, grid.Mesh] {
	var out []Churn[grid.Coord, grid.Mesh]
	for _, n := range []int{100, 512, 2048} {
		out = append(out, Churn2D(n, 100, 200, 1))
	}
	return out
}

// DefaultChurn3At returns the 3-D benchmark scenario for a mesh side
// length: ~1% steady-state fault density and 200 churn events on the
// historical 12³ default, and the 64³ and 128³ scenarios that size the
// incremental cuboid block model. Their event counts stay modest because
// the rebuild baseline pays a full mfp3d.Build per event, and 128³ has no
// rebuild record at all (see RebuildFeasible). Other sizes take the 12³
// counts. Keep the scenarios fixed — the record names derived from them
// are the workloads' identity for -bench-compare.
func DefaultChurn3At(size int) Churn[grid3.Coord, grid3.Mesh] {
	switch size {
	case 64:
		return Churn3D(64, 200, 160, 1)
	case 128:
		return Churn3D(128, 256, 160, 1)
	default:
		return Churn3D(size, 20, 200, 1)
	}
}

// Name renders the scenario as the benchmark workload identity, e.g.
// "churn/mesh100/faults100/events200/seed1" in 2-D and
// "churn3d/mesh12/faults20/events200/seed1" in 3-D.
func (c Churn[C, T]) Name() string {
	return fmt.Sprintf("%s/mesh%d/faults%d/events%d/seed%d", c.dim.prefix, c.Mesh.AxisLen(0), c.Faults, c.Events, c.BaseSeed)
}

// RebuildFeasible reports whether the per-event rebuild baseline is worth
// running at this scale: a from-scratch construction per event on meshes
// past 64³ nodes takes minutes per replay, which is the point of the
// incremental engine. Benchmark sweeps and reports skip the rebuild arm
// above this bound and check the final state against one BatchBuild
// instead.
func (c Churn[C, T]) RebuildFeasible() bool { return c.Mesh.Size() <= 64*64*64 }

// NewEngine returns an empty engine over the scenario's mesh.
func (c Churn[C, T]) NewEngine() (*kernel.Engine[C, T], error) { return c.dim.newEngine(c.Mesh) }

// Sequence generates the deterministic event stream: Faults warm-up
// arrivals followed by Events churn steps. Each churn step flips a fair
// coin between an arrival on a uniformly random healthy node and a repair
// of a uniformly random live fault (forced to an arrival when no faults
// remain), modelling a mesh whose fault population holds around the
// steady-state target. An arrival draws one position per axis, in axis
// order.
func (c Churn[C, T]) Sequence() []kernel.Event[C] {
	m := c.Mesh
	if c.Faults <= 0 || c.Events < 0 || c.Faults > m.Size() {
		panic(fmt.Sprintf("experiments: invalid churn scenario %s", c.Name()))
	}
	rng := rand.New(rand.NewSource(c.BaseSeed))
	faulty := kernel.NewSet[C](m)
	live := make([]C, 0, c.Faults)
	events := make([]kernel.Event[C], 0, c.Faults+c.Events)
	pos := make([]int, m.Axes())

	arrival := func() {
		for {
			for a := range pos {
				pos[a] = rng.Intn(m.AxisLen(a))
			}
			n := m.AtAxes(pos)
			if faulty.Add(n) {
				live = append(live, n)
				events = append(events, kernel.Event[C]{Op: kernel.Add, Node: n})
				return
			}
		}
	}
	for len(live) < c.Faults {
		arrival()
	}
	for i := 0; i < c.Events; i++ {
		// Force the step kind at the extremes: an empty mesh has nothing to
		// repair, a saturated one has no healthy node for an arrival (the
		// rejection sampler would spin forever).
		saturated := faulty.Len() == m.Size()
		if len(live) == 0 || (!saturated && rng.Intn(2) == 0) {
			arrival()
		} else {
			j := rng.Intn(len(live))
			n := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			faulty.Remove(n)
			events = append(events, kernel.Event[C]{Op: kernel.Clear, Node: n})
		}
	}
	return events
}

// Incremental replays the event stream through the incremental engine
// and returns its final snapshot. This is the timed body of the
// ".../incremental" benchmark record.
func (c Churn[C, T]) Incremental() (*kernel.Snapshot[C, T], error) {
	e, err := c.NewEngine()
	if err != nil {
		return nil, err
	}
	_, snap, err := e.Apply(c.Sequence())
	return snap, err
}

// Rebuild replays the same event stream the way a system without the
// engine would: mutate the fault set and run a from-scratch construction
// (core.Construct, mfp3d.Build) after every event. It returns the final
// construction, which Snapshot.Verify compares Incremental's snapshot
// against. This is the timed body of the ".../rebuild" benchmark record.
func (c Churn[C, T]) Rebuild() kernel.Reference[C, T] {
	faults := kernel.NewSet[C](c.Mesh)
	var last kernel.Reference[C, T]
	for _, ev := range c.Sequence() {
		kernel.Replay(faults, ev)
		last = c.dim.rebuild(faults)
	}
	return last
}

// BatchBuild replays the event stream onto a plain fault set and runs one
// from-scratch construction on the final state: the differential
// reference where Rebuild is not feasible.
func (c Churn[C, T]) BatchBuild() kernel.Reference[C, T] {
	faults := kernel.NewSet[C](c.Mesh)
	kernel.Replay(faults, c.Sequence()...)
	return c.dim.rebuild(faults)
}
