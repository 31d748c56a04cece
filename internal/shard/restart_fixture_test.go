package shard_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/shard"
)

// testdata/restart is a data directory written before the snapshot
// reader and the record writers went reflection-free (and before the
// engine's bulk build), by the history below: one 2-D and one 3-D mesh,
// each with a compaction snapshot and a log tail behind it. Recovering it
// pins format compatibility with existing data directories, and writing
// the same history again pins the bytes the writers produce.

// fixtureCompactBytes is the compaction threshold the fixture was written
// with: the first batch compacts, the tail batches stay in the log.
const fixtureCompactBytes = 512

// fixtureMesh is one mesh of the fixture.
type fixtureMesh struct {
	name    string
	w, h, d int // d == 0 for a 2-D mesh
}

var fixtureMeshes = []fixtureMesh{{"flat", 12, 10, 0}, {"cube", 5, 4, 3}}

// history is the mesh's event history as node triples: a first batch of
// distinct arrivals, then small batches that flip random nodes (add a
// healthy one, clear a faulty one), so every event advances the version.
func (f fixtureMesh) history() [][]fixtureEvent {
	rng := rand.New(rand.NewSource(int64(f.w*100 + f.h*10 + f.d)))
	depth := max(f.d, 1)
	faulty := map[[3]int]bool{}
	node := func() [3]int { return [3]int{rng.Intn(f.w), rng.Intn(f.h), rng.Intn(depth)} }
	var first []fixtureEvent
	for len(first) < 25 {
		if n := node(); !faulty[n] {
			faulty[n] = true
			first = append(first, fixtureEvent{true, n})
		}
	}
	out := [][]fixtureEvent{first}
	for b := 0; b < 4; b++ {
		var batch []fixtureEvent
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n := node()
			faulty[n] = !faulty[n]
			batch = append(batch, fixtureEvent{faulty[n], n})
		}
		out = append(out, batch)
	}
	return out
}

type fixtureEvent struct {
	add  bool
	node [3]int
}

// events converts a batch to kernel events over coordinate type C.
func events[C any](batch []fixtureEvent, coord func([3]int) C) []kernel.Event[C] {
	out := make([]kernel.Event[C], len(batch))
	for i, e := range batch {
		out[i] = kernel.Event[C]{Op: kernel.Clear, Node: coord(e.node)}
		if e.add {
			out[i].Op = kernel.Add
		}
	}
	return out
}

func coord2(n [3]int) grid.Coord  { return grid.XY(n[0], n[1]) }
func coord3(n [3]int) grid3.Coord { return grid3.XYZ(n[0], n[1], n[2]) }

// expect replays the history into the fault set and version it leaves.
func expect[C any, T kernel.Topology[C]](mesh T, history [][]fixtureEvent, coord func([3]int) C) (*kernel.Set[C, T], uint64) {
	faults := kernel.NewSet[C](mesh)
	version := 0
	for _, b := range history {
		version += kernel.Replay(faults, events(b, coord)...)
	}
	return faults, uint64(version)
}

// writeHistory writes every fixture mesh's history into dataDir.
func writeHistory(t *testing.T, dataDir string) {
	t.Helper()
	mgr := shard.NewManager(shard.Config{DataDir: dataDir, CompactBytes: fixtureCompactBytes})
	defer mgr.Close()
	for _, f := range fixtureMeshes {
		for i, b := range f.history() {
			var err error
			if f.d > 0 {
				var sh *shard.Shard[grid3.Coord, grid3.Mesh]
				if sh, err = shard.Get[grid3.Coord, grid3.Mesh](mgr, f.name); i == 0 {
					sh, err = mgr.Create3(f.name, grid3.New(f.w, f.h, f.d))
				}
				if err == nil {
					_, err = sh.Apply(events(b, coord3))
				}
			} else {
				var sh *shard.Shard[grid.Coord, grid.Mesh]
				if sh, err = shard.Get[grid.Coord, grid.Mesh](mgr, f.name); i == 0 {
					sh, err = mgr.Create(f.name, grid.New(f.w, f.h))
				}
				if err == nil {
					_, err = sh.Apply(events(b, coord2))
				}
			}
			if err != nil {
				t.Fatalf("%s batch %d: %v", f.name, i, err)
			}
		}
	}
}

// copyTree copies a directory of plain files one level of subdirectories
// deep, the shape of a data directory.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	meshes, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range meshes {
		files, err := os.ReadDir(filepath.Join(src, m.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, m.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, m.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, m.Name(), f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The fixture recovers to the fault set and version its history leaves.
func TestRecoverFixtureDataDir(t *testing.T) {
	for _, f := range fixtureMeshes {
		for _, file := range []string{"snapshot", "log"} {
			if fi, err := os.Stat(filepath.Join("testdata", "restart", f.name, file)); err != nil || fi.Size() == 0 {
				t.Fatalf("fixture %s has no %s (%v): it must cover a snapshot and a log tail", f.name, file, err)
			}
		}
	}
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "restart"), dir)
	mgr := shard.NewManager(shard.Config{DataDir: dir})
	defer mgr.Close()
	names, err := mgr.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(fixtureMeshes) {
		t.Fatalf("recovered %v", names)
	}
	for _, f := range fixtureMeshes {
		if f.d > 0 {
			checkRecovered(t, mgr, f, grid3.New(f.w, f.h, f.d), coord3)
		} else {
			checkRecovered(t, mgr, f, grid.New(f.w, f.h), coord2)
		}
	}
}

func checkRecovered[C any, T kernel.Topology[C]](t *testing.T, mgr *shard.Manager, f fixtureMesh, mesh T, coord func([3]int) C) {
	t.Helper()
	sh, err := shard.Get[C, T](mgr, f.name)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sh.Read()
	if err != nil {
		t.Fatal(err)
	}
	faults, version := expect(mesh, f.history(), coord)
	if v.Version != version || !v.Snapshot.Faults().Equal(faults) {
		t.Fatalf("%s: recovered version %d with %d faults, history leaves %d with %d",
			f.name, v.Version, v.Snapshot.Faults().Len(), version, faults.Len())
	}
	if err := v.Snapshot.Validate(); err != nil {
		t.Fatalf("%s: %v", f.name, err)
	}
}

// Writing the fixture's history again produces the fixture's bytes: meta,
// snapshot and log alike.
func TestWritersMatchFixtureBytes(t *testing.T) {
	dir := t.TempDir()
	writeHistory(t, dir)
	for _, f := range fixtureMeshes {
		for _, file := range []string{"meta.json", "snapshot", "log"} {
			want, err := os.ReadFile(filepath.Join("testdata", "restart", f.name, file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, f.name, file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: wrote %q, fixture holds %q", f.name, file, got, want)
			}
		}
	}
}
