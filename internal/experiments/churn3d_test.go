package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/engine3"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
)

// The 3-D analogue of the 2-D engine differential: a seeded churn of
// arrivals and repairs on a 12×12×12 mesh, with EVERY engine snapshot
// verified against a from-scratch batch mfp3d.Build on the same fault set
// — components, polytopes, disabled union and the cuboid unsafe set all
// byte-equal, per event, for at least 200 post-warm-up events.
func TestChurn3DifferentialPerEvent(t *testing.T) {
	cfg := Churn3Config{MeshSize: 12, Faults: 20, Events: 200, BaseSeed: 7}
	m := cfg.Mesh()
	seq := cfg.Sequence()
	if want := cfg.Faults + cfg.Events; len(seq) != want {
		t.Fatalf("sequence length %d, want %d", len(seq), want)
	}

	eng, err := engine3.New(m)
	if err != nil {
		t.Fatal(err)
	}
	faults := nodeset3.New(m)
	for i, ev := range seq {
		engine3.Replay(faults, ev)
		applied, snap, err := eng.Apply([]engine3.Event{ev})
		if err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		if applied != 1 {
			t.Fatalf("event %d (%v): applied %d, want 1", i, ev, applied)
		}
		if err := Churn3Diff(snap, mfp3d.Build(m, faults)); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		if err := eng.CheckOwners(); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
	}
}

// The same per-event pin at the 64³ benchmark scale of the incremental
// cuboid block model, with a schedule that actually exercises it: arrivals
// are clustered into a 16³ corner so components collide and merge (the
// uniform Sequence at this scale would produce near-only singletons), and
// a third of the steps clear a live fault, splitting components and
// dissolving them entirely. Every snapshot is verified against a batch
// mfp3d.Build — byte-equal components, polytopes, disabled union and
// cuboid unsafe set.
func TestChurn3DifferentialPerEvent64(t *testing.T) {
	m := grid3.New(64, 64, 64)
	eng, err := engine3.New(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	faults := nodeset3.New(m)
	var live []grid3.Coord
	for step := 0; step < 150; step++ {
		var ev engine3.Event
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			ev = engine3.Event{Op: kernel.Clear, Node: live[i]}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			var c grid3.Coord
			if rng.Intn(8) == 0 {
				// An occasional isolated fault far from the cluster keeps
				// multiple components (with disjoint cuboids) live.
				c = grid3.XYZ(rng.Intn(m.W), rng.Intn(m.H), rng.Intn(m.D))
			} else {
				c = grid3.XYZ(rng.Intn(16), rng.Intn(16), rng.Intn(16))
			}
			if faults.Has(c) {
				continue
			}
			ev = engine3.Event{Op: kernel.Add, Node: c}
			live = append(live, c)
		}
		engine3.Replay(faults, ev)
		applied, snap, err := eng.Apply([]engine3.Event{ev})
		if err != nil {
			t.Fatalf("step %d (%v): %v", step, ev, err)
		}
		if applied != 1 {
			t.Fatalf("step %d (%v): applied %d, want 1", step, ev, applied)
		}
		if err := Churn3Diff(snap, mfp3d.Build(m, faults)); err != nil {
			t.Fatalf("step %d (%v): %v", step, ev, err)
		}
		if err := eng.CheckOwners(); err != nil {
			t.Fatalf("step %d (%v): %v", step, ev, err)
		}
	}
}

// The 128³ stretch scale, where a per-event rebuild is out of reach: the
// incremental engine replays the whole benchmark scenario and the final
// snapshot is checked against one batch build (the same verification the
// -churn3d report runs there).
func TestChurn3BatchBuildDiff128(t *testing.T) {
	cfg := DefaultChurn3At(128)
	if cfg.RebuildFeasible() {
		t.Fatalf("config %+v should be past the rebuild feasibility bound", cfg)
	}
	snap, err := Churn3Incremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Churn3Diff(snap, Churn3BatchBuild(cfg)); err != nil {
		t.Fatal(err)
	}
}

// The final snapshots of the two replay strategies agree for the default
// benchmark scenario (the cheap whole-run check the -churn3d report uses).
func TestChurn3DefaultScenarioDiff(t *testing.T) {
	cfg := DefaultChurn3()
	snap, err := Churn3Incremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Churn3Diff(snap, Churn3Rebuild(cfg)); err != nil {
		t.Fatal(err)
	}
}

// Clearing every fault returns the engine to the empty state with no
// polytopes and an empty cuboid unsafe set.
func TestChurn3DrainToEmpty(t *testing.T) {
	cfg := Churn3Config{MeshSize: 8, Faults: 12, Events: 40, BaseSeed: 3}
	m := cfg.Mesh()
	eng, err := engine3.New(m)
	if err != nil {
		t.Fatal(err)
	}
	faults := nodeset3.New(m)
	for _, ev := range cfg.Sequence() {
		engine3.Replay(faults, ev)
		if _, _, err := eng.Apply([]engine3.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	clears := make([]engine3.Event, 0, faults.Len())
	faults.Each(func(c grid3.Coord) {
		clears = append(clears, engine3.Event{Op: kernel.Clear, Node: c})
	})
	_, snap, err := eng.Apply(clears)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Faults().Empty() || len(snap.Polygons()) != 0 ||
		!snap.Disabled().Empty() || !snap.Unsafe().Empty() {
		t.Fatalf("drained engine not empty: faults %d, polytopes %d, disabled %d, unsafe %d",
			snap.Faults().Len(), len(snap.Polygons()), snap.Disabled().Len(), snap.Unsafe().Len())
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}
