package shard

import (
	"errors"
	"testing"

	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
)

func add3(x, y, z int) engine3.Event {
	return engine3.Event{Op: kernel.Add, Node: grid3.XYZ(x, y, z)}
}

// A 3-D shard runs the same mailbox/eviction machinery as a 2-D one, with
// snapshots differentially equal to batch mfp3d construction — including
// across an eviction/rebuild cycle.
func TestShard3ApplyReadAndRebuild(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	cube, err := m.Create3("cube", grid3.New(8, 8, 8))
	if err != nil {
		t.Fatal(err)
	}

	events := []engine3.Event{add3(1, 1, 1), add3(2, 2, 2), add3(5, 1, 6), add3(1, 1, 1)}
	res, err := cube.Apply(events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 3 || res.Ignored != 1 || res.View.Version != 3 {
		t.Fatalf("apply result %+v", res)
	}

	faults := nodeset3.FromCoords(cube.Mesh(), grid3.XYZ(1, 1, 1), grid3.XYZ(2, 2, 2), grid3.XYZ(5, 1, 6))
	verify := func(v View[grid3.Coord, grid3.Mesh]) {
		t.Helper()
		ref := mfp3d.Build(cube.Mesh(), faults)
		if !v.Snapshot.Faults().Equal(ref.Faults) {
			t.Fatal("fault sets diverge")
		}
		if !v.Snapshot.Disabled().Equal(ref.DisabledPolytope) {
			t.Fatal("disabled sets diverge")
		}
		if !v.Snapshot.Unsafe().Equal(ref.DisabledCuboid) {
			t.Fatal("unsafe sets diverge")
		}
	}
	verify(res.View)

	// Planner is a 2-D-only feature.
	if _, _, _, err := cube.Planner(); !errors.Is(err, ErrNoPlanner) {
		t.Fatalf("Planner on 3-D shard: %v, want ErrNoPlanner", err)
	}

	// Stats carry the depth and the typed accessors enforce dimensionality.
	if st := cube.Stats(); st.Depth != 8 || st.Faults != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := Get[grid.Coord, grid.Mesh](m, "cube"); !errors.Is(err, ErrDimension) {
		t.Fatalf("Get(cube) = %v, want ErrDimension", err)
	}
	if _, err := Get[grid3.Coord, grid3.Mesh](m, "cube"); err != nil {
		t.Fatal(err)
	}

	// A second (2-D-free) shard forces the cube past the MaxResident bound;
	// the next read rebuilds from the persisted fault set, byte-identically.
	if _, err := m.Create3("other", grid3.New(4, 4, 4)); err != nil {
		t.Fatal(err)
	}
	v, err := cube.Read()
	if err != nil {
		t.Fatal(err)
	}
	verify(v)
	if v.Version != 3 {
		t.Fatalf("version across rebuild = %d, want 3", v.Version)
	}

	if err := m.Delete("cube"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get[grid3.Coord, grid3.Mesh](m, "cube"); !errors.Is(err, ErrUnknownMesh) {
		t.Fatalf("Get after delete: %v", err)
	}
	m.Close()
}

// Out-of-mesh 3-D events fail their own submission without poisoning the
// shard.
func TestShard3RejectsBadEvents(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	cube, err := m.Create3("cube", grid3.New(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Apply([]engine3.Event{add3(9, 0, 0)}); err == nil {
		t.Fatal("out-of-mesh event should fail")
	}
	res, err := cube.Apply([]engine3.Event{add3(1, 2, 3)})
	if err != nil || res.Applied != 1 {
		t.Fatalf("healthy submission after a bad one: %v %+v", err, res)
	}
}
