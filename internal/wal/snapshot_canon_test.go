package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

// slowDecodeSnapshot is decodeSnapshot without the fast path — the
// behavioural reference the canonical scanner must be indistinguishable
// from.
func slowDecodeSnapshot[C any](payload []byte) (snapshotPayload[C], error) {
	var p snapshotPayload[C]
	if err := json.Unmarshal(payload, &p); err != nil {
		return snapshotPayload[C]{}, fmt.Errorf("%w: bad snapshot record: %v", ErrCorrupt, err)
	}
	return p, nil
}

// checkSnapshotAgrees requires decodeSnapshot and the reference to return
// identical values (nil and empty fault slices distinguished) and
// identical error text.
func checkSnapshotAgrees[C any](t *testing.T, payload []byte) {
	t.Helper()
	got, gotErr := decodeSnapshot[C](payload)
	want, wantErr := slowDecodeSnapshot[C](payload)
	if (gotErr == nil) != (wantErr == nil) ||
		(gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decode %q: error %v, reference %v", payload, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q: %+v, reference %+v", payload, got, want)
	}
}

// Every snapshot Compact writes takes the fast path and decodes like the
// reference, in 2-D and 3-D, with nil and empty fault sets.
func TestDecodeSnapshotCanonicalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	versions := []uint64{0, 1, 10, 1 << 32, ^uint64(0)}
	for trial := 0; trial < 40; trial++ {
		version := versions[trial%len(versions)]
		f2 := make([]grid.Coord, rng.Intn(30))
		for i := range f2 {
			f2[i] = grid.XY(rng.Intn(600), rng.Intn(600))
		}
		f3 := make([]grid3.Coord, rng.Intn(30))
		for i := range f3 {
			f3[i] = grid3.XYZ(rng.Intn(70), rng.Intn(70), rng.Intn(70))
		}
		if trial == 1 {
			f2, f3 = nil, nil
		}
		p2, err := json.Marshal(snapshotPayload[grid.Coord]{Version: version, Faults: f2})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseCanonicalSnapshot[grid.Coord](p2); !ok {
			t.Fatalf("own encoding not canonical: %s", p2)
		}
		checkSnapshotAgrees[grid.Coord](t, p2)
		p3, err := json.Marshal(snapshotPayload[grid3.Coord]{Version: version, Faults: f3})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := parseCanonicalSnapshot[grid3.Coord](p3); !ok {
			t.Fatalf("own encoding not canonical: %s", p3)
		}
		checkSnapshotAgrees[grid3.Coord](t, p3)
	}
}

// Hand-edited and adversarial snapshots: the fast path declines each one
// and the outcome is the reference's.
func TestDecodeSnapshotCanonicalFallback(t *testing.T) {
	cases := []string{
		`{"version": 3,"faults":[]}`,                   // whitespace
		`{"faults":[{"x":1,"y":2}],"version":3}`,       // reordered envelope
		`{"version":3,"faults":[{"y":2,"x":1}]}`,       // reordered coordinate
		`{"version":03,"faults":[]}`,                   // leading zero
		`{"version":3,"faults":[]} `,                   // trailing space
		`{"version":3,"faults":[]}x`,                   // trailing data
		`{"version":3,"faults":[],"extra":1}`,          // extra field
		`{"version":3,"faults":[{"x":1,"y":2},]}`,      // trailing comma
		`{"version":3,"faults":[{"x":1,"y":2}]`,        // truncated
		`{"version":3,"faults":[{"x":1,"y":2,"z":3}]}`, // z on 2-D
		`{"version":3,"events":[]}`,                    // a batch, not a snapshot
		`{"version":3}`,                                // missing faults
		`{"version":18446744073709551616,"faults":[]}`, // uint64 overflow
		``, // empty
	}
	for _, c := range cases {
		if _, ok := parseCanonicalSnapshot[grid.Coord]([]byte(c)); ok {
			t.Errorf("fast path accepted non-canonical %q", c)
		}
		checkSnapshotAgrees[grid.Coord](t, []byte(c))
	}
	cases3 := []string{
		`{"version":3,"faults":[{"x":1,"y":2}]}`,       // a 3-D coordinate without z
		`{"version":3,"faults":[{"x":1,"z":3,"y":2}]}`, // z before y
	}
	for _, c := range cases3 {
		if _, ok := parseCanonicalSnapshot[grid3.Coord]([]byte(c)); ok {
			t.Errorf("fast path accepted non-canonical %q", c)
		}
		checkSnapshotAgrees[grid3.Coord](t, []byte(c))
	}
}

// writeSnapshot installs a hand-written snapshot record in dir.
func writeSnapshot(t *testing.T, dir, payload string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), frameRecord([]byte(payload)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Non-canonical snapshots — a hand-edited file — still recover, and a
// 3-D snapshot whose coordinate misses z fails recovery as corrupt with
// encoding/json's error.
func TestNonCanonicalSnapshotRecovers(t *testing.T) {
	for i, c := range []struct {
		payload string
		faults  []grid.Coord
	}{
		{"{ \"version\": 5,\n \"faults\": [ {\"x\":1, \"y\":2} ] }", []grid.Coord{grid.XY(1, 2)}},
		{`{"faults":[{"y":2,"x":1},{"x":3,"y":0}],"version":5}`, []grid.Coord{grid.XY(1, 2), grid.XY(3, 0)}},
		{`{"version":5,"faults":null}`, nil},
	} {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(i))
		writeSnapshot(t, dir, c.payload)
		log, rec, err := Open[grid.Coord](dir)
		if err != nil {
			t.Fatalf("%q: %v", c.payload, err)
		}
		log.Close()
		if rec.Version != 5 || !reflect.DeepEqual(rec.Faults, c.faults) {
			t.Fatalf("%q: recovered version %d faults %v", c.payload, rec.Version, rec.Faults)
		}
	}

	dir := t.TempDir()
	payload := `{"version":5,"faults":[{"x":1,"y":2}]}`
	writeSnapshot(t, dir, payload)
	_, _, err := Open[grid3.Coord](dir)
	_, want := slowDecodeSnapshot[grid3.Coord]([]byte(payload))
	if !errors.Is(err, ErrCorrupt) || err.Error() != want.Error() {
		t.Fatalf("3-D snapshot without z: %v, want %v", err, want)
	}
}

// The records Append and Compact write are byte-identical to
// json.Marshal of their payloads inside the record framing, in 2-D and
// 3-D, for empty and nil fault sets too.
func TestRecordBytesMatchMarshal(t *testing.T) {
	checkRecordBytes(t, []kernel.Event[grid.Coord]{add(3, 4), clr(3, 4), add(511, 0)},
		[]grid.Coord{grid.XY(0, 0), grid.XY(17, 4), grid.XY(511, 511)})
	checkRecordBytes(t, []kernel.Event[grid3.Coord]{
		{Op: kernel.Add, Node: grid3.XYZ(1, 2, 3)}, {Op: kernel.Clear, Node: grid3.XYZ(63, 0, 9)},
	}, []grid3.Coord{grid3.XYZ(0, 0, 0), grid3.XYZ(5, 63, 12)})
	checkRecordBytes(t, []kernel.Event[grid.Coord]{add(1, 1)}, []grid.Coord{})
	checkRecordBytes[grid3.Coord](t, nil, nil)
}

func checkRecordBytes[C any](t *testing.T, events []kernel.Event[C], faults []C) {
	t.Helper()
	dir := t.TempDir()
	log, err := Create[C](dir, Meta{Width: 1, Height: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := log.Append(7, events); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(batchPayload[C]{Version: 7, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if want := frameRecord(payload); !bytes.Equal(got, want) {
		t.Fatalf("log record %q, json.Marshal framing %q", got, want)
	}
	if err := log.Compact(9, faults); err != nil {
		t.Fatal(err)
	}
	if payload, err = json.Marshal(snapshotPayload[C]{Version: 9, Faults: faults}); err != nil {
		t.Fatal(err)
	}
	if got, err = os.ReadFile(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	if want := frameRecord(payload); !bytes.Equal(got, want) {
		t.Fatalf("snapshot record %q, json.Marshal framing %q", got, want)
	}
}

// An event with an invalid op fails Append with encoding/json's error, as
// before the appender, and writes nothing.
func TestAppendInvalidOp(t *testing.T) {
	dir := t.TempDir()
	log := mustCreate(t, dir)
	defer log.Close()
	events := []kernel.Event[grid.Coord]{add(1, 1), {Op: kernel.Op(9)}}
	_, want := json.Marshal(batchPayload[grid.Coord]{Version: 1, Events: events})
	err := log.Append(1, events)
	if err == nil || want == nil || err.Error() != "wal: encode batch: "+want.Error() {
		t.Fatalf("append of an invalid op: %v, want the encoding/json error %v", err, want)
	}
	if log.LogBytes() != 0 {
		t.Fatalf("failed append wrote %d bytes", log.LogBytes())
	}
}
