package wal

import (
	"bytes"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

// FuzzWALDecode hardens the record decoder that recovery trusts with a
// crash-mangled file: arbitrary bytes must scan without panicking, the
// valid prefix must be an actual prefix made of whole records, and every
// CRC-valid payload must either decode or fail cleanly. The scan must also
// be idempotent — truncating to the reported good offset and rescanning
// yields the same records, which is exactly what Open does to a torn tail.
// Every CRC-valid payload is also decoded as a batch and as a 2-D and 3-D
// snapshot, and each canonical fast path must agree with encoding/json on
// the value and the error.
func FuzzWALDecode(f *testing.F) {
	// Seeded corpus: whole logs, torn tails at awkward offsets, corrupt
	// lengths and checksums, and raw junk.
	rec1 := frameRecord([]byte(`{"version":1,"events":[{"op":"add","x":3,"y":4}]}`))
	rec2 := frameRecord([]byte(`{"version":2,"events":[{"op":"clear","x":3,"y":4}]}`))
	snap := frameRecord([]byte(`{"version":2,"faults":[{"x":1,"y":1}]}`))
	badCRC := append([]byte(nil), rec1...)
	badCRC[4] ^= 0xff
	hugeLen := append([]byte(nil), rec1...)
	hugeLen[3] = 0xff
	f.Add([]byte{})
	f.Add(rec1)
	f.Add(append(append([]byte(nil), rec1...), rec2...))
	f.Add(append(append([]byte(nil), rec1...), rec2[:len(rec2)-3]...))
	f.Add(rec1[:headerSize-1])
	f.Add(rec1[:headerSize])
	f.Add(badCRC)
	f.Add(hugeLen)
	f.Add(snap)
	f.Add(frameRecord([]byte(`{"version":4,"faults":[{"x":1,"y":1,"z":2},{"x":3,"y":0,"z":1}]}`)))
	f.Add(frameRecord([]byte(`{"version":4,"faults":null}`)))
	f.Add(frameRecord([]byte(`{"version":4,"faults":[{"x":1,"y":1}]} `)))
	f.Add(frameRecord([]byte(`not json`)))
	f.Add(frameRecord([]byte(`{"version":9,"events":[{"op":"boom","x":1,"y":2}]}`)))
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08"))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, good := scanFrames(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		// The valid prefix must re-scan to the same records with no tail —
		// the invariant Open relies on after truncating.
		again, againGood := scanFrames(data[:good])
		if againGood != good || len(again) != len(payloads) {
			t.Fatalf("rescan of valid prefix: %d records to offset %d, want %d to %d",
				len(again), againGood, len(payloads), good)
		}
		total := int64(0)
		for i, p := range payloads {
			if !bytes.Equal(p, again[i]) {
				t.Fatalf("record %d changed across rescan", i)
			}
			total += headerSize + int64(len(p))
			// A CRC-valid payload either decodes into a re-encodable batch
			// or fails cleanly; decodeBatch must never panic.
			if b, err := decodeBatch[grid.Coord](p); err == nil {
				for _, e := range b.Events {
					if e.Op != kernel.Add && e.Op != kernel.Clear {
						t.Fatalf("decoded invalid op %d", e.Op)
					}
				}
			}
			checkBatchAgrees(t, p)
			checkSnapshotAgrees[grid.Coord](t, p)
			checkSnapshotAgrees[grid3.Coord](t, p)
		}
		if total != good {
			t.Fatalf("records cover %d bytes, good offset %d", total, good)
		}
	})
}
