package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

// ChurnConfig describes a fault arrival/repair process over T steps: the
// scenario behind the incremental-vs-full-rebuild comparison. The mesh
// first accumulates Faults faults (the warm-up arrivals), then alternates
// randomly between arrivals and repairs for Events steps, holding the
// fault count near the steady-state target. The whole sequence is a
// deterministic function of the config, so timing runs, differential
// tests and archived benchmark records all replay the identical stream.
type ChurnConfig struct {
	// MeshSize is the side length n of the n×n mesh.
	MeshSize int
	// Faults is the steady-state fault count (the paper's 1% density on a
	// 100×100 mesh is Faults: 100).
	Faults int
	// Events is the number of churn steps after warm-up.
	Events int
	// BaseSeed makes the event stream reproducible.
	BaseSeed int64
}

// DefaultChurn is the benchmark scenario of the repository's BENCH records:
// 1% steady-state fault density on the paper's 100×100 mesh, 200 churn
// events. Keep it fixed — the record name derived from it is the workload's
// identity for -bench-compare.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{MeshSize: 100, Faults: 100, Events: 200, BaseSeed: 1}
}

// ChurnMeshSweep is the mesh-size sweep of the BENCH records: the default
// churn's fault count and event count on 100², 512² and 2048² meshes. At
// a fixed fault count the components stay the same size as the mesh
// grows, so the per-event cost across the sweep shows how much of it
// still scales with the mesh rather than with the touched component.
func ChurnMeshSweep() []ChurnConfig {
	var out []ChurnConfig
	for _, n := range []int{100, 512, 2048} {
		c := DefaultChurn()
		c.MeshSize = n
		out = append(out, c)
	}
	return out
}

// Name renders the config as the benchmark workload identity, e.g.
// "churn/mesh100/faults100/events200/seed1".
func (c ChurnConfig) Name() string {
	return fmt.Sprintf("churn/mesh%d/faults%d/events%d/seed%d", c.MeshSize, c.Faults, c.Events, c.BaseSeed)
}

func (c ChurnConfig) validate() {
	if c.MeshSize <= 0 || c.Faults <= 0 || c.Events < 0 || c.Faults > c.MeshSize*c.MeshSize {
		panic(fmt.Sprintf("experiments: invalid churn config %+v", c))
	}
}

// Sequence generates the deterministic event stream: Faults warm-up
// arrivals followed by Events churn steps. Each churn step flips a fair
// coin between an arrival on a uniformly random healthy node and a repair
// of a uniformly random live fault (forced to an arrival when no faults
// remain), modelling a mesh whose fault population holds around the
// steady-state target.
func (c ChurnConfig) Sequence() []engine.Event {
	c.validate()
	m := grid.New(c.MeshSize, c.MeshSize)
	rng := rand.New(rand.NewSource(c.BaseSeed))
	faulty := nodeset.New(m)
	live := make([]grid.Coord, 0, c.Faults)
	events := make([]engine.Event, 0, c.Faults+c.Events)

	arrival := func() {
		for {
			n := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
			if faulty.Add(n) {
				live = append(live, n)
				events = append(events, engine.Event{Op: engine.Add, Node: n})
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
			events = append(events, engine.Event{Op: engine.Clear, Node: n})
		}
	}
	return events
}

// ChurnIncremental replays the event stream through the incremental engine
// and returns its final snapshot. This is the timed body of the
// "churn/.../incremental" benchmark record.
func ChurnIncremental(c ChurnConfig) (*engine.Snapshot, error) {
	e, err := engine.New(grid.New(c.MeshSize, c.MeshSize))
	if err != nil {
		return nil, err
	}
	_, snap, err := e.Apply(c.Sequence())
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// ChurnRebuild replays the same event stream the way a system without the
// engine would: mutate the fault set and run a from-scratch core.Construct
// after every event. It returns the final construction, which differential
// tests compare against ChurnIncremental's snapshot. This is the timed
// body of the "churn/.../rebuild" benchmark record.
func ChurnRebuild(c ChurnConfig) *core.Construction {
	m := grid.New(c.MeshSize, c.MeshSize)
	faults := nodeset.New(m)
	var last *core.Construction
	for _, ev := range c.Sequence() {
		engine.Replay(faults, ev)
		last = core.Construct(m, faults, core.Options{Workers: 1})
	}
	return last
}
