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
// internally consistent.
func FuzzApply(f *testing.F) {
	f.Add([]byte(`[{"op":"add","x":3,"y":4},{"op":"add","x":5,"y":4},{"op":"add","x":4,"y":5}]`))
	f.Add([]byte(`[{"op":"add","x":0,"y":0},{"op":"clear","x":0,"y":0}]`))
	f.Add([]byte(`[{"op":"add","x":7,"y":7},{"op":"add","x":8,"y":7}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := engine.DecodeEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A fresh engine per input keeps crashers self-contained: the
		// archived reproducer alone replays the failure, with no hidden
		// state accumulated from earlier inputs.
		eng, err := engine.New(grid.New(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Snapshot()
		if _, snap, err := eng.Apply(events); err != nil {
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
	})
}
