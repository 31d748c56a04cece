// Package wal gives each mesh a durable history: an append-only event log
// plus a snapshot file, both under one per-mesh directory, so a process
// restart (or SIGKILL) recovers every acknowledged event.
//
// The log is a sequence of length+CRC32-framed records. Each record's
// payload is JSON — {"version":N,"events":[{"op":"add","x":3,"y":4},...]}
// — reusing the exact wire format of the events API: the event framing is
// kernel.Event's codec and the coordinate half is owned by the coordinate
// type (grid.Coord, grid3.Coord), so a 2-D and a 3-D mesh each persist
// their own native events. Version is the shard's cumulative
// state-changing event count after the batch; recovery replays batches
// through kernel.Replay and checks it lands exactly on every recorded
// version, which makes replay self-verifying.
//
// Compaction bounds recovery cost by churn, not lifetime: Compact persists
// the full fault set + version as a snapshot (written to a temp file,
// fsynced, renamed — never in place) and then truncates the log. A crash
// between the rename and the truncate leaves already-compacted records in
// the log; they carry versions at or below the snapshot's and are skipped
// on recovery, never replayed twice.
//
// A crash mid-append leaves a torn tail: a short header, a payload shorter
// than its length field, or a CRC mismatch. Open detects the tear, reports
// it, and truncates the file back to the last whole record — a torn tail
// is by construction an event batch that was never acknowledged, so
// truncation never loses an acknowledged event, and the tear is never
// silently replayed as data.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/kernel"
)

// File names inside a mesh's WAL directory.
const (
	metaFile     = "meta.json"
	logFile      = "log"
	snapshotFile = "snapshot"
)

// headerSize is the per-record framing overhead: a little-endian uint32
// payload length followed by a little-endian IEEE CRC32 of the payload.
const headerSize = 8

// maxRecord bounds a single record's payload so a corrupt length field
// cannot make recovery allocate gigabytes. It comfortably exceeds the
// largest batch the shard layer coalesces (its 4096-event maxBatch cap).
const maxRecord = 64 << 20

// ErrCorrupt reports damage recovery must not paper over: a CRC-valid
// record whose payload does not decode, or versions that do not advance
// monotonically. (A torn *tail* is not corruption — it is truncated and
// reported in Recovery.Truncated.)
var ErrCorrupt = errors.New("wal: corrupt log")

// Meta identifies the mesh a WAL directory belongs to; it is written once
// at creation and read back before recovery so the caller can dispatch on
// dimensionality before opening the typed log. Depth is 0 for 2-D meshes.
type Meta struct {
	Width  int `json:"width"`
	Height int `json:"height"`
	Depth  int `json:"depth,omitempty"`
}

// Batch is one recovered log record: the events of one acknowledged
// coalesced batch and the shard version right after it.
type Batch[C any] struct {
	Version uint64
	Events  []kernel.Event[C]
}

// Recovery is what Open reconstructed from disk: the snapshot base (the
// full fault set at Version) plus every surviving log batch after it, in
// version order. The caller replays Faults then Batches through
// kernel.Replay; the replayed version must land exactly on each batch's
// recorded Version.
type Recovery[C any] struct {
	// Version and Faults are the compaction snapshot; zero/empty when the
	// mesh never compacted.
	Version uint64
	Faults  []C
	// Batches are the log records with versions above the snapshot's.
	Batches []Batch[C]
	// Truncated is the size in bytes of the torn tail Open cut off the
	// log; 0 means the log ended on a whole record.
	Truncated int64
}

// Log is an open per-mesh WAL handle. It is not safe for concurrent use;
// the shard's run goroutine owns it, which also means appends are already
// serialized with the state they record.
type Log[C any] struct {
	dir      string
	f        *os.File
	logBytes int64 // bytes of whole records in the log since the last compaction
}

// Create initialises a fresh WAL directory for a mesh and returns the open
// log. It fails if the directory already holds a WAL (meta.json exists) —
// recovering an existing directory is Open's job. WAL files left without
// a meta.json (a delete cut off by a crash before tombstones existed) are
// no mesh's history: they are removed, so the new mesh starts empty
// instead of appending to, or recovering from, a deleted one. The parent
// is fsynced after the directory is made, and the directory after each
// file it gains, so an acknowledged append never rests on a directory
// entry that a crash can take back.
func Create[C any](dir string, meta Meta) (*Log[C], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	if _, err := os.Lstat(filepath.Join(dir, metaFile)); err == nil {
		return nil, fmt.Errorf("wal: create %s: already holds a WAL", dir)
	}
	for _, name := range []string{logFile, snapshotFile, snapshotFile + ".tmp"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: clean stale %s: %w", name, err)
		}
	}
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("wal: encode meta: %w", err)
	}
	mf, err := os.OpenFile(filepath.Join(dir, metaFile), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create meta: %w", err)
	}
	if _, err := mf.Write(append(data, '\n')); err != nil {
		mf.Close()
		return nil, fmt.Errorf("wal: write meta: %w", err)
	}
	if err := mf.Sync(); err != nil {
		mf.Close()
		return nil, fmt.Errorf("wal: sync meta: %w", err)
	}
	walMetrics.fsyncs.Inc()
	if err := mf.Close(); err != nil {
		return nil, fmt.Errorf("wal: close meta: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create log: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &Log[C]{dir: dir, f: f}, nil
}

// tombstonePrefix marks a mesh directory that Remove is deleting. Mesh
// names start with an alphanumeric, so no mesh directory carries it.
const tombstonePrefix = ".deleted-"

// Remove deletes a mesh's WAL directory so that a crash at any point
// leaves either the whole mesh or none of it: the directory is renamed to
// a tombstone, the rename is fsynced, and only then is the tombstone
// removed. A tombstone a crash leaves behind is never listed by Meshes
// and is removed by Sweep. A missing directory is not an error.
func Remove(dir string) error {
	parent := filepath.Dir(dir)
	tomb := filepath.Join(parent, tombstonePrefix+filepath.Base(dir))
	if err := os.RemoveAll(tomb); err != nil {
		return fmt.Errorf("wal: remove stale tombstone: %w", err)
	}
	if err := os.Rename(dir, tomb); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: tombstone %s: %w", dir, err)
	}
	if err := syncDir(parent); err != nil {
		return err
	}
	if err := os.RemoveAll(tomb); err != nil {
		return fmt.Errorf("wal: remove tombstone: %w", err)
	}
	return nil
}

// Sweep removes the tombstones interrupted Removes left under dataDir. A
// missing dataDir holds none.
func Sweep(dataDir string) error {
	entries, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: scan %s: %w", dataDir, err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tombstonePrefix) {
			if err := os.RemoveAll(filepath.Join(dataDir, e.Name())); err != nil {
				return fmt.Errorf("wal: sweep tombstone: %w", err)
			}
		}
	}
	return nil
}

// LogPath returns the path of the append-only log file inside a mesh's
// WAL directory. Exported for crash-injection harnesses that tear the
// log's tail to simulate dying mid-append; serving code never needs it.
func LogPath(dir string) string {
	return filepath.Join(dir, logFile)
}

// ReadMeta reads a WAL directory's mesh identity.
func ReadMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return Meta{}, fmt.Errorf("wal: read meta: %w", err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("wal: decode meta in %s: %w", dir, err)
	}
	return m, nil
}

// Meshes lists the mesh names with a recoverable WAL under dataDir (the
// subdirectories holding a meta.json), sorted. A missing dataDir is an
// empty namespace, not an error.
func Meshes(dataDir string) ([]string, error) {
	entries, err := os.ReadDir(dataDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: scan %s: %w", dataDir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), tombstonePrefix) {
			continue
		}
		if _, err := os.Stat(filepath.Join(dataDir, e.Name(), metaFile)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open recovers a mesh's WAL directory: it reads the compaction snapshot
// (if any), scans the log, truncates any torn tail, and returns the open
// log positioned for appends plus everything the caller must replay.
func Open[C any](dir string) (*Log[C], *Recovery[C], error) {
	start := time.Now()
	rec := &Recovery[C]{}
	if err := readSnapshot(dir, rec); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logFile), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read log: %w", err)
	}
	payloads, good := scanFrames(data)
	if int64(len(data)) > good {
		// Torn tail: a record the crash cut short. It was never
		// acknowledged (acknowledgement follows the fsync of the whole
		// record), so cutting it off loses nothing — and keeping it would
		// replay garbage.
		rec.Truncated = int64(len(data)) - good
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
		walMetrics.fsyncs.Inc()
		walMetrics.tornTails.Inc()
	}
	prev := rec.Version
	for _, p := range payloads {
		b, err := decodeBatch[C](p)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if b.Version <= rec.Version {
			// Already folded into the snapshot: the crash hit between the
			// snapshot rename and the log truncate. Skipping (never
			// replaying) is what keeps compaction crash-safe.
			continue
		}
		if b.Version <= prev {
			f.Close()
			return nil, nil, fmt.Errorf("%w: record version %d after %d", ErrCorrupt, b.Version, prev)
		}
		prev = b.Version
		rec.Batches = append(rec.Batches, b)
	}
	walMetrics.recoverSeconds.ObserveDuration(time.Since(start))
	return &Log[C]{dir: dir, f: f, logBytes: good}, rec, nil
}

// Append durably records one acknowledged batch: the caller's reply must
// not be sent before Append returns, so every acknowledged event is on
// disk. version is the shard version after the batch.
func (l *Log[C]) Append(version uint64, events []kernel.Event[C]) error {
	frame, err := encodeRecord(version, "events", len(events)*40,
		func(dst []byte) ([]byte, bool) { return kernel.AppendCanonicalEventArray(dst, events) },
		batchPayload[C]{Version: version, Events: events})
	if err != nil {
		return fmt.Errorf("wal: encode batch: %w", err)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync append: %w", err)
	}
	l.logBytes += int64(len(frame))
	walMetrics.appends.Inc()
	walMetrics.bytes.Add(uint64(len(frame)))
	walMetrics.fsyncs.Inc()
	return nil
}

// Compact persists the full fault set + version as the new snapshot and
// truncates the log, bounding recovery cost by churn since this call. The
// snapshot replacement is atomic (temp file, fsync, rename); only after it
// is durable does the log shrink, so a crash at any point recovers to
// exactly the pre- or post-compaction state.
func (l *Log[C]) Compact(version uint64, faults []C) error {
	start := time.Now()
	frame, err := encodeRecord(version, "faults", len(faults)*32,
		func(dst []byte) ([]byte, bool) { return kernel.AppendCanonicalCoordArray(dst, faults) },
		snapshotPayload[C]{Version: version, Faults: faults})
	if err != nil {
		return fmt.Errorf("wal: encode snapshot: %w", err)
	}
	tmp := filepath.Join(l.dir, snapshotFile+".tmp")
	sf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := sf.Write(frame); err != nil {
		sf.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := sf.Sync(); err != nil {
		sf.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	walMetrics.fsyncs.Inc()
	if err := sf.Close(); err != nil {
		return fmt.Errorf("wal: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotFile)); err != nil {
		return fmt.Errorf("wal: publish snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync truncated log: %w", err)
	}
	l.logBytes = 0
	walMetrics.bytes.Add(uint64(len(frame)))
	walMetrics.fsyncs.Inc()
	walMetrics.compactSeconds.ObserveDuration(time.Since(start))
	return nil
}

// LogBytes reports the size of the log since the last compaction — the
// compaction policy's input.
func (l *Log[C]) LogBytes() int64 { return l.logBytes }

// Close fsyncs and closes the log handle. Every Append already synced, so
// this is belt and braces for the shutdown path.
func (l *Log[C]) Close() error {
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: fsync on close: %w", err)
	}
	walMetrics.fsyncs.Inc()
	return l.f.Close()
}

type batchPayload[C any] struct {
	Version uint64            `json:"version"`
	Events  []kernel.Event[C] `json:"events"`
}

type snapshotPayload[C any] struct {
	Version uint64 `json:"version"`
	Faults  []C    `json:"faults"`
}

// frameRecord wraps a payload in the record framing: uint32 LE length,
// uint32 LE CRC32 (IEEE) of the payload, payload.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, headerSize, headerSize+len(payload))
	return sealRecord(append(frame, payload...))
}

// sealRecord fills in the header of a frame whose payload follows its
// headerSize reserved bytes.
func sealRecord(frame []byte) []byte {
	payload := frame[headerSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame
}

// encodeRecord frames the payload {"version":N,"<key>":<array>} that
// json.Marshal writes for slow (a batchPayload or snapshotPayload), with
// the array appended by body, one of the kernel's reflection-free
// canonical appenders; sizeHint estimates the array's length. When body
// declines (a coordinate type without a Wire method, an invalid op), the
// payload is json.Marshal(slow) itself, which also reports the error.
func encodeRecord(version uint64, key string, sizeHint int, body func([]byte) ([]byte, bool), slow any) ([]byte, error) {
	frame := make([]byte, headerSize, headerSize+len(`{"version":,"":}`)+20+len(key)+sizeHint)
	frame = append(frame, `{"version":`...)
	frame = strconv.AppendUint(frame, version, 10)
	frame = append(frame, `,"`...)
	frame = append(frame, key...)
	frame = append(frame, `":`...)
	frame, ok := body(frame)
	if !ok {
		payload, err := json.Marshal(slow)
		if err != nil {
			return nil, err
		}
		return frameRecord(payload), nil
	}
	return sealRecord(append(frame, '}')), nil
}

// scanFrames walks data record by record and returns every whole, CRC-valid
// payload plus the byte offset the valid prefix ends at. Anything after
// that offset — a short header, a length running past the buffer or over
// maxRecord, a CRC mismatch — is a torn tail for the caller to truncate.
// It never panics on arbitrary input (FuzzWALDecode's contract).
func scanFrames(data []byte) (payloads [][]byte, good int64) {
	off := 0
	for {
		if len(data)-off < headerSize {
			return payloads, int64(off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecord || n > len(data)-off-headerSize {
			return payloads, int64(off)
		}
		payload := data[off+headerSize : off+headerSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, int64(off)
		}
		payloads = append(payloads, payload)
		off += headerSize + n
	}
}

// decodeBatch decodes one CRC-valid log payload. Strict: unknown trailing
// data or undecodable events are ErrCorrupt, not a torn tail — the CRC
// matched, so the bytes are what was written, and what was written is
// wrong. Recovery must fail loudly rather than guess.
//
// Payloads in the exact canonical form Append writes — json.Marshal of
// batchPayload, whose event array is kernel.Event's own canonical
// encoding — are decoded by a hand scanner; anything else falls back to
// encoding/json, so recovery accepts the same language and reports the
// same errors either way. The fast path is what keeps recovery time
// dominated by replay instead of reflective JSON decoding.
func decodeBatch[C any](payload []byte) (Batch[C], error) {
	if b, ok := parseCanonicalBatch[C](payload); ok {
		return b, nil
	}
	var p batchPayload[C]
	if err := json.Unmarshal(payload, &p); err != nil {
		return Batch[C]{}, fmt.Errorf("%w: bad batch record: %v", ErrCorrupt, err)
	}
	return Batch[C]{Version: p.Version, Events: p.Events}, nil
}

// parseCanonicalBatch scans `{"version":N,"events":[...]}` with no
// whitespace and a canonical event array. ok=false means "not canonical"
// (reordered keys, whitespace, a hand-edited log …), never "corrupt" —
// the caller re-decodes through encoding/json for the verdict.
func parseCanonicalBatch[C any](payload []byte) (Batch[C], bool) {
	version, pos, ok := canonicalHead(payload, `,"events":`)
	if !ok {
		return Batch[C]{}, false
	}
	events, end, ok := kernel.ParseCanonicalEventArray[C](payload, pos)
	if !ok || end != len(payload)-1 || payload[end] != '}' {
		return Batch[C]{}, false
	}
	return Batch[C]{Version: version, Events: events}, true
}

// canonicalHead scans the `{"version":N` opening every canonical record
// and the separator that follows it, returning the version and the offset
// of the array after the separator. ok=false means "not canonical".
func canonicalHead(payload []byte, sep string) (version uint64, pos int, ok bool) {
	const prefix = `{"version":`
	if len(payload) < len(prefix) || string(payload[:len(prefix)]) != prefix {
		return 0, 0, false
	}
	pos = len(prefix)
	// Canonical uint64: digits only, no leading zero (except "0" itself),
	// overflow-checked so a 20-digit value falls back rather than wraps.
	start := pos
	for pos < len(payload) && payload[pos] >= '0' && payload[pos] <= '9' {
		d := uint64(payload[pos] - '0')
		if version > (^uint64(0)-d)/10 {
			return 0, 0, false
		}
		version = version*10 + d
		pos++
	}
	if pos == start || (payload[start] == '0' && pos-start > 1) {
		return 0, 0, false
	}
	if len(payload)-pos < len(sep) || string(payload[pos:pos+len(sep)]) != sep {
		return 0, 0, false
	}
	return version, pos + len(sep), true
}

// decodeSnapshot decodes the CRC-valid compaction snapshot payload under
// decodeBatch's contract: the canonical form Compact writes is scanned by
// hand, anything else goes through encoding/json, so the accepted
// language and the errors are encoding/json's, and an undecodable payload
// is ErrCorrupt.
func decodeSnapshot[C any](payload []byte) (snapshotPayload[C], error) {
	if p, ok := parseCanonicalSnapshot[C](payload); ok {
		return p, nil
	}
	var p snapshotPayload[C]
	if err := json.Unmarshal(payload, &p); err != nil {
		return snapshotPayload[C]{}, fmt.Errorf("%w: bad snapshot record: %v", ErrCorrupt, err)
	}
	return p, nil
}

// parseCanonicalSnapshot scans `{"version":N,"faults":[...]}` with no
// whitespace and a canonical coordinate array. ok=false means "not
// canonical", never "corrupt".
func parseCanonicalSnapshot[C any](payload []byte) (snapshotPayload[C], bool) {
	version, pos, ok := canonicalHead(payload, `,"faults":`)
	if !ok {
		return snapshotPayload[C]{}, false
	}
	faults, end, ok := kernel.ParseCanonicalCoordArray[C](payload, pos)
	if !ok || end != len(payload)-1 || payload[end] != '}' {
		return snapshotPayload[C]{}, false
	}
	return snapshotPayload[C]{Version: version, Faults: faults}, true
}

// readSnapshot loads the compaction snapshot into rec; a missing snapshot
// file means the mesh never compacted (version 0, no faults). The snapshot
// is written atomically, so a framing or CRC failure here is corruption,
// not a tear.
func readSnapshot[C any](dir string, rec *Recovery[C]) error {
	data, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: read snapshot: %w", err)
	}
	payloads, good := scanFrames(data)
	if len(payloads) != 1 || good != int64(len(data)) {
		return fmt.Errorf("%w: snapshot is not one whole record", ErrCorrupt)
	}
	p, err := decodeSnapshot[C](payloads[0])
	if err != nil {
		return err
	}
	rec.Version, rec.Faults = p.Version, p.Faults
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable, not only its contents.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	walMetrics.fsyncs.Inc()
	return nil
}
