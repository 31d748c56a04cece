package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

func add(x, y int) kernel.Event[grid.Coord] {
	return kernel.Event[grid.Coord]{Op: kernel.Add, Node: grid.XY(x, y)}
}

func clr(x, y int) kernel.Event[grid.Coord] {
	return kernel.Event[grid.Coord]{Op: kernel.Clear, Node: grid.XY(x, y)}
}

func mustCreate(t *testing.T, dir string) *Log[grid.Coord] {
	t.Helper()
	l, err := Create[grid.Coord](dir, Meta{Width: 8, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustOpen(t *testing.T, dir string) (*Log[grid.Coord], *Recovery[grid.Coord]) {
	t.Helper()
	l, rec, err := Open[grid.Coord](dir)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestRoundtrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Append(2, []kernel.Event[grid.Coord]{add(1, 1), add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, []kernel.Event[grid.Coord]{add(1, 1), clr(2, 2), add(3, 3)}); err != nil {
		t.Fatal(err)
	}
	if l.LogBytes() == 0 {
		t.Fatal("LogBytes() = 0 after appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	meta, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta != (Meta{Width: 8, Height: 8}) {
		t.Fatalf("meta = %+v", meta)
	}

	l2, rec := mustOpen(t, dir)
	defer l2.Close()
	if rec.Version != 0 || len(rec.Faults) != 0 || rec.Truncated != 0 {
		t.Fatalf("recovery base = %+v", rec)
	}
	if len(rec.Batches) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(rec.Batches))
	}
	if rec.Batches[0].Version != 2 || rec.Batches[1].Version != 3 {
		t.Fatalf("versions = %d, %d", rec.Batches[0].Version, rec.Batches[1].Version)
	}
	want := []kernel.Event[grid.Coord]{add(1, 1), clr(2, 2), add(3, 3)}
	if !reflect.DeepEqual(rec.Batches[1].Events, want) {
		t.Fatalf("batch events = %v, want %v", rec.Batches[1].Events, want)
	}
}

// TestEmptyLog: a mesh that was created but never wrote an event recovers
// to the empty state.
func TestEmptyLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir)
	defer l2.Close()
	if rec.Version != 0 || len(rec.Faults) != 0 || len(rec.Batches) != 0 || rec.Truncated != 0 {
		t.Fatalf("recovery = %+v, want empty", rec)
	}
}

// TestTornTail cuts the final record short at every possible byte boundary
// and checks recovery keeps the whole records, truncates the tear, and a
// subsequent append picks up cleanly from the truncation point.
func TestTornTail(t *testing.T) {
	base := t.TempDir()
	build := func(t *testing.T, dir string) ([]byte, int) {
		l := mustCreate(t, dir)
		if err := l.Append(1, []kernel.Event[grid.Coord]{add(1, 1)}); err != nil {
			t.Fatal(err)
		}
		whole := int(l.LogBytes())
		if err := l.Append(2, []kernel.Event[grid.Coord]{add(2, 2)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, logFile))
		if err != nil {
			t.Fatal(err)
		}
		return data, whole
	}
	probe, whole := build(t, filepath.Join(base, "probe"))
	for cut := whole + 1; cut < len(probe); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("m%d", cut))
		data, _ := build(t, dir)
		if err := os.WriteFile(filepath.Join(dir, logFile), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open[grid.Coord](dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Batches) != 1 || rec.Batches[0].Version != 1 {
			t.Fatalf("cut %d: recovered %d batches", cut, len(rec.Batches))
		}
		if rec.Truncated != int64(cut-whole) {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rec.Truncated, cut-whole)
		}
		// The file must physically shrink back to the whole prefix, and an
		// append after recovery must extend a clean log.
		if info, err := os.Stat(filepath.Join(dir, logFile)); err != nil || info.Size() != int64(whole) {
			t.Fatalf("cut %d: log size %v after truncation, want %d", cut, info.Size(), whole)
		}
		if err := l.Append(2, []kernel.Event[grid.Coord]{add(3, 3)}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2, rec2 := mustOpen(t, dir)
		if len(rec2.Batches) != 2 || rec2.Batches[1].Version != 2 {
			t.Fatalf("cut %d: reopen recovered %d batches", cut, len(rec2.Batches))
		}
		l2.Close()
	}
}

// TestCompaction: after Compact the snapshot carries the state, the log is
// empty, and recovery replays snapshot + post-compaction batches only.
func TestCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Append(2, []kernel.Event[grid.Coord]{add(1, 1), add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(2, []grid.Coord{grid.XY(1, 1), grid.XY(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if l.LogBytes() != 0 {
		t.Fatalf("LogBytes() = %d after compaction", l.LogBytes())
	}
	if err := l.Append(3, []kernel.Event[grid.Coord]{add(3, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir)
	defer l2.Close()
	if rec.Version != 2 {
		t.Fatalf("snapshot version = %d, want 2", rec.Version)
	}
	if want := []grid.Coord{grid.XY(1, 1), grid.XY(2, 2)}; !reflect.DeepEqual(rec.Faults, want) {
		t.Fatalf("snapshot faults = %v, want %v", rec.Faults, want)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Version != 3 {
		t.Fatalf("batches = %+v, want one at version 3", rec.Batches)
	}
}

// TestSnapshotWithoutLog: a snapshot whose log file is missing (the mesh
// idled after compaction and someone cleaned the zero-length file, or the
// crash hit before the log was recreated) recovers from the snapshot alone.
func TestSnapshotWithoutLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Append(1, []kernel.Event[grid.Coord]{add(4, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, []grid.Coord{grid.XY(4, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, logFile)); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir)
	defer l2.Close()
	if rec.Version != 1 || len(rec.Faults) != 1 || len(rec.Batches) != 0 {
		t.Fatalf("recovery = %+v, want snapshot only", rec)
	}
}

// TestCompactionCrashWindow simulates a crash between the snapshot rename
// and the log truncate: the log still holds records the snapshot already
// folded in. Recovery must skip them — replaying them would double-apply.
func TestCompactionCrashWindow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Append(1, []kernel.Event[grid.Coord]{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []kernel.Event[grid.Coord]{add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(2, []grid.Coord{grid.XY(1, 1), grid.XY(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(3, []kernel.Event[grid.Coord]{add(3, 3)}); err != nil {
		t.Fatal(err)
	}
	tail, err := os.ReadFile(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the crash-window file: pre-compaction records still in
	// front of the post-compaction one.
	if err := os.WriteFile(filepath.Join(dir, logFile), append(logBytes, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir)
	defer l2.Close()
	if rec.Version != 2 {
		t.Fatalf("snapshot version = %d", rec.Version)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Version != 3 {
		t.Fatalf("batches = %+v, want only the post-compaction record", rec.Batches)
	}
}

// TestCorruptPayload: a CRC-valid record with an undecodable payload is
// ErrCorrupt — recovery fails loudly instead of guessing.
func TestCorruptPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"version":1,"events":[{"op":"launch","x":1,"y":1}]}`)
	if err := os.WriteFile(filepath.Join(dir, logFile), frameRecord(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open[grid.Coord](dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestNonMonotoneVersions: CRC-valid records whose versions go backwards
// are corruption, not a tail.
func TestNonMonotoneVersions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Append(5, []kernel.Event[grid.Coord]{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(4, []kernel.Event[grid.Coord]{add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open[grid.Coord](dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCreateRefusesExisting: Create on a directory that already holds a
// WAL fails — recovering is Open's job, and silently restarting a log
// would orphan history.
func TestCreateRefusesExisting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	l := mustCreate(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create[grid.Coord](dir, Meta{Width: 8, Height: 8}); err == nil {
		t.Fatal("Create on an existing WAL directory succeeded")
	}
}

// Test3D exercises the 3-D instantiation end to end: grid3 coordinates
// survive the wire format and the snapshot.
func Test3D(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "vol")
	l, err := Create[grid3.Coord](dir, Meta{Width: 4, Height: 4, Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ev := kernel.Event[grid3.Coord]{Op: kernel.Add, Node: grid3.XYZ(1, 2, 3)}
	if err := l.Append(1, []kernel.Event[grid3.Coord]{ev}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, []grid3.Coord{grid3.XYZ(1, 2, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []kernel.Event[grid3.Coord]{{Op: kernel.Clear, Node: grid3.XYZ(1, 2, 3)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Depth != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	l2, rec, err := Open[grid3.Coord](dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Version != 1 || len(rec.Faults) != 1 || rec.Faults[0] != grid3.XYZ(1, 2, 3) {
		t.Fatalf("recovery base = %+v", rec)
	}
	if len(rec.Batches) != 1 || rec.Batches[0].Events[0].Op != kernel.Clear {
		t.Fatalf("batches = %+v", rec.Batches)
	}
}

func TestMeshes(t *testing.T) {
	dataDir := t.TempDir()
	for _, name := range []string{"b", "a"} {
		l, err := Create[grid.Coord](filepath.Join(dataDir, name), Meta{Width: 8, Height: 8})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	// A stray subdirectory without meta.json and a stray file are skipped.
	if err := os.MkdirAll(filepath.Join(dataDir, "junk"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "file"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := Meshes(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Meshes = %v, want %v", names, want)
	}
	missing, err := Meshes(filepath.Join(dataDir, "nope"))
	if err != nil || missing != nil {
		t.Fatalf("Meshes on missing dir = %v, %v", missing, err)
	}
}

// TestScanFramesRejectsHugeLength: a corrupt length field must not make
// recovery allocate; the record reads as a torn tail.
func TestScanFramesRejectsHugeLength(t *testing.T) {
	data := make([]byte, headerSize+16)
	binary.LittleEndian.PutUint32(data[0:4], uint32(maxRecord+1))
	binary.LittleEndian.PutUint32(data[4:8], crc32.ChecksumIEEE(data[8:]))
	payloads, good := scanFrames(data)
	if len(payloads) != 0 || good != 0 {
		t.Fatalf("scanFrames = %d payloads, good %d", len(payloads), good)
	}
}

// TestRemoveTombstone: Remove leaves nothing behind, a tombstone an
// interrupted Remove left is neither listed nor kept past Sweep, and
// Create over stale WAL files without a meta.json starts an empty log.
func TestRemoveTombstone(t *testing.T) {
	data := t.TempDir()
	dir := filepath.Join(data, "m")
	l := mustCreate(t, dir)
	if err := l.Append(1, []kernel.Event[grid.Coord]{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := Remove(dir); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(data); len(entries) != 0 {
		t.Fatalf("Remove left %d entries", len(entries))
	}
	if err := Remove(dir); err != nil {
		t.Fatalf("removing a missing mesh: %v", err)
	}

	// A crash between Remove's rename and its removal.
	mustCreate(t, filepath.Join(data, tombstonePrefix+"x")).Close()
	if names, err := Meshes(data); err != nil || len(names) != 0 {
		t.Fatalf("Meshes listed %v (%v), want none", names, err)
	}
	if err := Sweep(data); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(data); len(entries) != 0 {
		t.Fatalf("Sweep left %d entries", len(entries))
	}

	// Stale log and snapshot without a meta.json: Create starts over.
	l = mustCreate(t, dir)
	if err := l.Append(1, []kernel.Event[grid.Coord]{add(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(1, []grid.Coord{grid.XY(2, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []kernel.Event[grid.Coord]{add(3, 3)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.Remove(filepath.Join(dir, metaFile)); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, dir).Close()
	l, rec := mustOpen(t, dir)
	defer l.Close()
	if rec.Version != 0 || len(rec.Faults) != 0 || len(rec.Batches) != 0 {
		t.Fatalf("re-created WAL recovered version %d, %d faults, %d batches; want an empty history",
			rec.Version, len(rec.Faults), len(rec.Batches))
	}
}
