package shard

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// durableManager is a manager with durability on and a tiny mailbox-free
// config otherwise, so tests exercise exactly the WAL plumbing.
func durableManager(dir string, compact int64) *Manager {
	return NewManager(Config{DataDir: dir, CompactBytes: compact})
}

// Recovery loads the recovered fault set into the one engine the shard
// builds, instead of building a second and dropping the first.
func TestRecoverBuildsOneEngine(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(16, 16)
	mgr := durableManager(dir, 0)
	sh, err := mgr.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Apply([]engine.Event{add(2, 2), add(3, 3), add(9, 9)}); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2 := durableManager(dir, 0)
	defer mgr2.Close()
	built := 0
	count := func(m grid.Mesh) (*kernel.Engine[grid.Coord, grid.Mesh], error) {
		built++
		return newEngine2(m)
	}
	sh2, err := create(mgr2, "m", mesh, count, newPlanner2, true)
	if err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Fatalf("recovering one mesh built %d engines, want 1", built)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	verify(t, v, nodeset.FromCoords(mesh, grid.XY(2, 2), grid.XY(3, 3), grid.XY(9, 9)))
}

// TestDurableRoundtrip: apply, shut down cleanly, recover in a fresh
// manager — version and fault set (and the construction they imply)
// survive, and the recovered shard keeps serving.
func TestDurableRoundtrip(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(16, 16)

	mgr := durableManager(dir, 0)
	sh, err := mgr.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh.Apply([]engine.Event{add(2, 2), add(3, 2), add(2, 2), clear(9, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.View.Version != 2 {
		t.Fatalf("applied %d version %d", res.Applied, res.View.Version)
	}
	if _, err := sh.Apply([]engine.Event{clear(3, 2), add(5, 5)}); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2 := durableManager(dir, 0)
	defer mgr2.Close()
	names, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "m" {
		t.Fatalf("recovered %v", names)
	}
	sh2, err := Get[grid.Coord, grid.Mesh](mgr2, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 4 {
		t.Fatalf("recovered version %d, want 4", v.Version)
	}
	expected := nodeset.FromCoords(mesh, grid.XY(2, 2), grid.XY(5, 5))
	verify(t, v, expected)
	// The recovered shard keeps accepting events with continuous versions.
	res, err = sh2.Apply([]engine.Event{add(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if res.View.Version != 5 {
		t.Fatalf("post-recovery version %d, want 5", res.View.Version)
	}
}

// TestDurableCompaction drives enough churn through a tiny CompactBytes
// bound that the log compacts repeatedly, then recovers and differentially
// verifies: snapshot + surviving tail must reproduce the exact state.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(16, 16)

	mgr := durableManager(dir, 128)
	sh, err := mgr.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	expected := nodeset.New(mesh)
	var version uint64
	for i := 0; i < 40; i++ {
		evs := []engine.Event{add(i%16, (i*7)%16), clear((i+3)%16, (i*5)%16)}
		res, err := sh.Apply(evs)
		if err != nil {
			t.Fatal(err)
		}
		version += uint64(kernel.Replay(expected, evs...))
		if res.View.Version != version {
			t.Fatalf("step %d: version %d, want %d", i, res.View.Version, version)
		}
	}
	mgr.Close()

	// The tiny bound must actually have compacted: the snapshot exists and
	// the log holds at most the churn since the last compaction.
	if _, err := os.Stat(filepath.Join(dir, "m", "snapshot")); err != nil {
		t.Fatalf("no compaction snapshot written: %v", err)
	}

	mgr2 := durableManager(dir, 128)
	defer mgr2.Close()
	if _, err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	sh2, err := Get[grid.Coord, grid.Mesh](mgr2, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != version {
		t.Fatalf("recovered version %d, want %d", v.Version, version)
	}
	verify(t, v, expected)
}

// TestDurableTornTail simulates a crash mid-append: garbage after the last
// whole record must be truncated at recovery, with every acknowledged
// event intact.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(16, 16)

	mgr := durableManager(dir, 0)
	sh, err := mgr.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Apply([]engine.Event{add(1, 1), add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	logPath := filepath.Join(dir, "m", "log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A header that claims more payload than follows: deterministically torn.
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mgr2 := durableManager(dir, 0)
	defer mgr2.Close()
	if _, err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	sh2, err := Get[grid.Coord, grid.Mesh](mgr2, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 2 || v.Snapshot.Faults().Len() != 2 {
		t.Fatalf("recovered version %d faults %d, want 2/2", v.Version, v.Snapshot.Faults().Len())
	}
}

// TestDurable3D: the 3-D instantiation recovers through the same path,
// dispatched off the persisted meta.
func TestDurable3D(t *testing.T) {
	dir := t.TempDir()
	mesh := grid3.New(8, 8, 8)

	mgr := durableManager(dir, 0)
	sh, err := mgr.Create3("vol", mesh)
	if err != nil {
		t.Fatal(err)
	}
	evs := []engine3.Event{
		{Op: engine3.Add, Node: grid3.XYZ(1, 2, 3)},
		{Op: engine3.Add, Node: grid3.XYZ(1, 2, 4)},
		{Op: engine3.Clear, Node: grid3.XYZ(1, 2, 3)},
	}
	if _, err := sh.Apply(evs); err != nil {
		t.Fatal(err)
	}
	mgr.Close()

	mgr2 := durableManager(dir, 0)
	defer mgr2.Close()
	if _, err := mgr2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := Get[grid.Coord, grid.Mesh](mgr2, "vol"); err != ErrDimension && err == nil {
		t.Fatal("3-D mesh recovered as 2-D")
	}
	sh2, err := Get[grid3.Coord, grid3.Mesh](mgr2, "vol")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 3 || v.Snapshot.Faults().Len() != 1 || !v.Snapshot.Faults().Has(grid3.XYZ(1, 2, 4)) {
		t.Fatalf("recovered 3-D state: version %d faults %v", v.Version, v.Snapshot.Faults())
	}
}

// TestDeleteRemovesWAL: deletion forgets history on purpose — the
// directory goes away and the name is immediately reusable, durably.
func TestDeleteRemovesWAL(t *testing.T) {
	dir := t.TempDir()
	mgr := durableManager(dir, 0)
	defer mgr.Close()
	sh, err := mgr.Create("m", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Delete("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "m")); !os.IsNotExist(err) {
		t.Fatalf("wal dir survives delete: %v", err)
	}
	// Recreate under the same name: a fresh, empty mesh.
	sh2, err := mgr.Create("m", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh2.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 0 || v.Snapshot.Faults().Len() != 0 {
		t.Fatalf("recreated mesh inherits state: version %d", v.Version)
	}
}

// TestRecoverSurvivesEviction: a durable manager under LRU pressure still
// recovers exactly — eviction-rebuild and WAL recovery share the replay
// path, and neither loses acknowledged state.
func TestRecoverSurvivesEviction(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(16, 16)
	mgr := NewManager(Config{DataDir: dir, MaxResident: 1, CompactBytes: 256})
	names := []string{"a", "b", "c"}
	for _, name := range names {
		sh, err := mgr.Create(name, mesh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.Apply([]engine.Event{add(1, 1), add(2, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()

	mgr2 := NewManager(Config{DataDir: dir, MaxResident: 1, CompactBytes: 256})
	defer mgr2.Close()
	recovered, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(names) {
		t.Fatalf("recovered %v", recovered)
	}
	for _, name := range names {
		sh, err := Get[grid.Coord, grid.Mesh](mgr2, name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := sh.Read()
		if err != nil {
			t.Fatal(err)
		}
		if v.Version != 2 || v.Snapshot.Faults().Len() != 2 {
			t.Fatalf("%s: version %d faults %d", name, v.Version, v.Snapshot.Faults().Len())
		}
	}
}

// TestRecoverEmptyDataDir: a missing or empty data dir is an empty
// namespace, and a manager without a DataDir ignores Recover entirely.
func TestRecoverEmptyDataDir(t *testing.T) {
	mgr := durableManager(filepath.Join(t.TempDir(), "nonexistent"), 0)
	defer mgr.Close()
	names, err := mgr.Recover()
	if err != nil || len(names) != 0 {
		t.Fatalf("Recover = %v, %v", names, err)
	}
	plain := NewManager(Config{})
	defer plain.Close()
	if names, err := plain.Recover(); err != nil || names != nil {
		t.Fatalf("in-memory Recover = %v, %v", names, err)
	}
}

// TestRecreateAfterInterruptedDelete: a Delete cut off after removing
// meta.json leaves the old log and snapshot on disk. Recovery must not
// list the half-deleted mesh, a Create of the same name must start from
// an empty history, and an event acknowledged by the new mesh must
// survive a restart without the deleted mesh's faults coming back.
func TestRecreateAfterInterruptedDelete(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.New(8, 8)

	mgr := durableManager(dir, 64)
	sh, err := mgr.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 6; x++ {
		if _, err := sh.Apply([]engine.Event{add(x, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Close()
	// The state an os.RemoveAll cut off after its first unlink leaves.
	if err := os.Remove(filepath.Join(dir, "m", "meta.json")); err != nil {
		t.Fatal(err)
	}

	mgr2 := durableManager(dir, 64)
	names, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("recovered %v from a half-deleted directory", names)
	}
	sh2, err := mgr2.Create("m", mesh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sh2.Apply([]engine.Event{add(7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.View.Version != 1 {
		t.Fatalf("re-created mesh acknowledged at version %d, want 1", res.View.Version)
	}
	mgr2.Close()

	mgr3 := durableManager(dir, 64)
	defer mgr3.Close()
	if _, err := mgr3.Recover(); err != nil {
		t.Fatal(err)
	}
	sh3, err := Get[grid.Coord, grid.Mesh](mgr3, "m")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh3.Read()
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 1 {
		t.Fatalf("after restart: version %d, want 1", v.Version)
	}
	verify(t, v, nodeset.FromCoords(mesh, grid.XY(7, 0)))
}
