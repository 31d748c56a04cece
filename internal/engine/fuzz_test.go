package engine_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
)

// FuzzDecodeEvents hardens the wire decoder behind mfpd's events
// endpoints: arbitrary bodies must either decode into a batch every one of
// whose events re-encodes/re-decodes to itself, or fail cleanly — never
// panic, and never smuggle an invalid op past the decoder.
func FuzzDecodeEvents(f *testing.F) {
	// Seeded corpus: the shapes the issue tracker has seen bite —
	// truncated JSON, out-of-bounds coordinates, duplicate add/clear
	// pairs — plus valid batches and structural junk.
	for _, seed := range []string{
		`[]`,
		`[{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":3,"y":4},{"op":"clear","x":3,"y":4},{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":1,"y":1},{"op":"add","x":1,"y":1}]`,
		`[{"op":"add","x":-7,"y":123456789}]`,
		`[{"op":"add","x":9999999999999,"y":0}]`,
		`[{"op":"add","x":3`,
		`[{"op":"add","x":3,"y":4}`,
		`[{"op":"add","x":3,"y":4}] trailing`,
		`[{"op":"add","x":3,"y":4}][]`,
		`[{"op":"explode","x":1,"y":1}]`,
		`[{"op":"add","y":4}]`,
		`[{"op":null,"x":1,"y":1}]`,
		`[{"op":"add","x":1.5,"y":2}]`,
		`{"op":"add","x":3,"y":4}`,
		`null`,
		`"add"`,
		"\x00\x01\x02",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := engine.DecodeEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		reencoded, err := json.Marshal(events)
		if err != nil {
			// Every decoded event must carry a valid op, so re-encoding
			// cannot fail.
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		again, err := engine.DecodeEvents(bytes.NewReader(reencoded))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("roundtrip changed batch length: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed across roundtrip: %v -> %v", i, events[i], again[i])
			}
			if events[i].Op != engine.Add && events[i].Op != engine.Clear {
				t.Fatalf("invalid op survived decoding: %v", events[i])
			}
		}
	})
}

// FuzzApply drives a small engine with arbitrary decoded batches: Apply
// must reject invalid events atomically and keep every published snapshot
// internally consistent. The input's leading arrivals go first, as one
// batch on the empty engine — the bulk build — and the rest as a second
// batch; a reference engine fed the same events one at a time must land
// on the identical state.
func FuzzApply(f *testing.F) {
	f.Add([]byte(`[{"op":"add","x":3,"y":4},{"op":"add","x":5,"y":4},{"op":"add","x":4,"y":5}]`))
	f.Add([]byte(`[{"op":"add","x":0,"y":0},{"op":"clear","x":0,"y":0}]`))
	f.Add([]byte(`[{"op":"add","x":7,"y":7},{"op":"add","x":8,"y":7}]`))
	f.Add([]byte(`[{"op":"add","x":1,"y":1},{"op":"add","x":3,"y":1},{"op":"add","x":2,"y":2},{"op":"add","x":1,"y":1},{"op":"clear","x":2,"y":2},{"op":"add","x":2,"y":0}]`))
	f.Add([]byte(`[{"op":"add","x":0,"y":7},{"op":"add","x":7,"y":0},{"op":"add","x":6,"y":1},{"op":"clear","x":5,"y":5},{"op":"add","x":1,"y":6}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := engine.DecodeEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A fresh engine per input keeps crashers self-contained: the
		// archived reproducer alone replays the failure, with no hidden
		// state accumulated from earlier inputs.
		m := grid.New(8, 8)
		eng, err := engine.New(m)
		if err != nil {
			t.Fatal(err)
		}
		adds := 0
		for adds < len(events) && events[adds].Op == engine.Add {
			adds++
		}
		for _, batch := range [][]engine.Event{events[:adds], events[adds:]} {
			before := eng.Snapshot()
			if _, snap, err := eng.Apply(batch); err != nil {
				// A rejected batch must leave the engine untouched.
				if got := eng.Snapshot(); got.Version() != before.Version() {
					t.Fatalf("failed batch advanced version %d -> %d", before.Version(), got.Version())
				}
				return
			} else if err := snap.Validate(); err != nil {
				t.Fatalf("snapshot invariants broken: %v", err)
			} else if err := eng.CheckOwners(); err != nil {
				t.Fatal(err)
			}
		}
		ref, _ := engine.New(m)
		for _, ev := range events {
			if _, _, err := ref.Apply([]engine.Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
		got, want := eng.Snapshot(), ref.Snapshot()
		if got.Version() != want.Version() || !got.Faults().Equal(want.Faults()) ||
			!got.Disabled().Equal(want.Disabled()) || !got.Unsafe().Equal(want.Unsafe()) ||
			len(got.Polygons()) != len(want.Polygons()) {
			t.Fatalf("batched state differs from one event at a time")
		}
		for i, p := range got.Polygons() {
			if !p.Equal(want.Polygons()[i]) || !got.Components()[i].Equal(want.Components()[i]) {
				t.Fatalf("component %d differs from one event at a time", i)
			}
		}
	})
}
