package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

func TestChurnSequenceDeterministicAndValid(t *testing.T) {
	cfg := ChurnConfig{MeshSize: 30, Faults: 20, Events: 150, BaseSeed: 9}
	a, b := cfg.Sequence(), cfg.Sequence()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) != cfg.Faults+cfg.Events {
		t.Fatalf("%d events, want %d", len(a), cfg.Faults+cfg.Events)
	}

	// Replaying the stream must keep every event effective: adds hit
	// healthy nodes, clears hit live faults, and the warm-up prefix ends
	// exactly at the steady-state target.
	m := grid.New(cfg.MeshSize, cfg.MeshSize)
	faults := nodeset.New(m)
	for i, ev := range a {
		switch ev.Op {
		case engine.Add:
			if !faults.Add(ev.Node) {
				t.Fatalf("event %d: add of already-faulty %v", i, ev.Node)
			}
		case engine.Clear:
			if !faults.Remove(ev.Node) {
				t.Fatalf("event %d: clear of healthy %v", i, ev.Node)
			}
			if i < cfg.Faults {
				t.Fatalf("event %d: clear inside the warm-up prefix", i)
			}
		}
		if i == cfg.Faults-1 && faults.Len() != cfg.Faults {
			t.Fatalf("warm-up ends with %d faults, want %d", faults.Len(), cfg.Faults)
		}
	}
}

func TestChurnName(t *testing.T) {
	if got, want := DefaultChurn().Name(), "churn/mesh100/faults100/events200/seed1"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

// The acceptance test of the incremental engine at paper scale: after
// every event of the default ≥200-event churn sequence on the 100×100
// mesh, the engine snapshot's polygons, disabled set and per-node statuses
// are identical to a from-scratch core.Construct on the same fault set.
func TestChurnDifferentialPaperScale(t *testing.T) {
	cfg := DefaultChurn()
	m := grid.New(cfg.MeshSize, cfg.MeshSize)
	eng, err := engine.New(m)
	if err != nil {
		t.Fatal(err)
	}
	faults := nodeset.New(m)
	seq := cfg.Sequence()
	if len(seq) < 200 {
		t.Fatalf("churn sequence has %d events, want >= 200", len(seq))
	}
	for i, ev := range seq {
		if ev.Op == engine.Add {
			faults.Add(ev.Node)
		} else {
			faults.Remove(ev.Node)
		}
		_, snap, err := eng.Apply(seq[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Faults().Equal(faults) {
			t.Fatalf("event %d (%v): fault sets diverged", i, ev)
		}
		if err := eng.CheckOwners(); err != nil {
			t.Fatalf("event %d (%v): %v", i, ev, err)
		}
		want := core.Construct(m, faults, core.Options{Workers: 1})
		if len(snap.Polygons()) != len(want.Minimum.Polygons) {
			t.Fatalf("event %d (%v): %d polygons, rebuild has %d",
				i, ev, len(snap.Polygons()), len(want.Minimum.Polygons))
		}
		for p, poly := range snap.Polygons() {
			if !poly.Equal(want.Minimum.Polygons[p]) {
				t.Fatalf("event %d (%v): polygon %d differs from rebuild", i, ev, p)
			}
		}
		if !snap.Disabled().Equal(want.Minimum.Disabled) {
			t.Fatalf("event %d (%v): disabled set differs from rebuild", i, ev)
		}
		for n := 0; n < m.Size(); n++ {
			node := m.CoordAt(n)
			if snap.Class(node) != want.Class(core.MFP, node) {
				t.Fatalf("event %d (%v): status of %v differs from rebuild", i, ev, node)
			}
		}
	}
}

// Both replay paths must land on the same final state.
func TestChurnIncrementalMatchesRebuild(t *testing.T) {
	cfg := ChurnConfig{MeshSize: 40, Faults: 30, Events: 60, BaseSeed: 3}
	snap, err := ChurnIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := ChurnRebuild(cfg)
	if !snap.Faults().Equal(full.Faults) {
		t.Fatal("fault sets differ between replay paths")
	}
	if !snap.Disabled().Equal(full.Minimum.Disabled) {
		t.Fatal("disabled sets differ between replay paths")
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
}

// A sequence on a mesh the warm-up saturates completely must terminate:
// arrivals are impossible on a full mesh and the generator has to force
// repairs instead of rejection-sampling forever.
func TestChurnSequenceOnSaturatedMesh(t *testing.T) {
	cfg := ChurnConfig{MeshSize: 3, Faults: 9, Events: 10, BaseSeed: 2}
	seq := cfg.Sequence()
	if len(seq) != cfg.Faults+cfg.Events {
		t.Fatalf("%d events, want %d", len(seq), cfg.Faults+cfg.Events)
	}
	if seq[cfg.Faults].Op != engine.Clear {
		t.Fatalf("first churn step on a saturated mesh is %v, want a clear", seq[cfg.Faults])
	}
}
