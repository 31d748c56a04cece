package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The wire format of an event is {"op":"add"|"clear", ...coordinate...},
// with the coordinate's fields inlined into the same object: {"op":"add",
// "x":3,"y":4} in 2-D, {"op":"add","x":3,"y":4,"z":5} in 3-D. The
// coordinate half of the codec is owned by the coordinate type itself
// (grid.Coord and grid3.Coord implement json.Marshaler/Unmarshaler with
// exactly those lowercase fields, rejecting events that miss one), so each
// topology's events are validated per-topology while the event framing
// lives once, here.

// MarshalJSON encodes the event by splicing the coordinate's JSON object
// after the op, e.g. {"op":"add","x":3,"y":4}.
func (e Event[C]) MarshalJSON() ([]byte, error) {
	if e.Op != Add && e.Op != Clear {
		return nil, fmt.Errorf("engine: cannot encode invalid op %d", uint8(e.Op))
	}
	node, err := json.Marshal(e.Node)
	if err != nil {
		return nil, err
	}
	if len(node) < 2 || node[0] != '{' || node[len(node)-1] != '}' {
		return nil, fmt.Errorf("engine: coordinate %v does not encode as a JSON object", e.Node)
	}
	out := make([]byte, 0, len(node)+12)
	out = append(out, `{"op":"`...)
	out = append(out, e.Op.String()...)
	out = append(out, '"')
	if len(node) > 2 {
		out = append(out, ',')
		out = append(out, node[1:]...)
	} else {
		out = append(out, '}')
	}
	return out, nil
}

// UnmarshalJSON decodes the wire format produced by MarshalJSON. The op is
// required here; the coordinate type's own unmarshaller requires its
// fields. Mesh bounds are not checked — Apply validates them against its
// mesh.
func (e *Event[C]) UnmarshalJSON(data []byte) error {
	var head struct {
		Op *string `json:"op"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("engine: bad event: %w", err)
	}
	if head.Op == nil {
		return fmt.Errorf("engine: event %s misses op", data)
	}
	op, err := ParseOp(*head.Op)
	if err != nil {
		return err
	}
	var node C
	if err := json.Unmarshal(data, &node); err != nil {
		return fmt.Errorf("engine: bad event %s: %w", data, err)
	}
	*e = Event[C]{Op: op, Node: node}
	return nil
}

// DecodeEvents decodes a JSON array of wire events from r — the request
// body format of mfpd's events endpoints. The whole array is decoded
// before anything is returned and data trailing the array is rejected, so
// a truncated or concatenated body can never be half-accepted. Mesh bounds
// are not checked here — ValidateEvents and Apply check them against a
// concrete mesh.
//
// Bodies in the exact canonical form MarshalJSON produces — no
// whitespace, op first, x/y(/z) in order, plain decimal integers — are
// decoded by a hand scanner without touching encoding/json; anything
// else (reordered keys, whitespace, floats, leading zeros, huge numbers)
// falls back to the reflective path below, so the accepted language and
// every error are exactly what they were without the fast path.
func DecodeEvents[C any](r io.Reader) ([]Event[C], error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: bad event batch: %w", err)
	}
	if events, ok := parseCanonicalEvents[C](data); ok {
		return events, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var events []Event[C]
	if err := dec.Decode(&events); err != nil {
		return nil, fmt.Errorf("engine: bad event batch: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("engine: trailing data after event batch")
	}
	return events, nil
}

// wireSetter is the hook coordinate types offer the canonical fast path:
// assemble the coordinate directly from scanned wire fields, applying the
// same dimensionality checks as the type's UnmarshalJSON (a 2-D coordinate
// rejects hasZ, a 3-D one requires it). Coordinate types that do not
// implement it simply never take the fast path.
type wireSetter interface {
	SetWire(x, y, z int, hasZ bool) error
}

// canonScanner walks a byte buffer that is suspected to be canonical
// event JSON. It never backtracks more than the caller's saved position
// and never allocates; any mismatch makes the caller abandon the whole
// fast path.
type canonScanner struct {
	data []byte
	pos  int
}

// lit consumes the exact literal, reporting whether it was there.
func (s *canonScanner) lit(l string) bool {
	if len(s.data)-s.pos < len(l) || string(s.data[s.pos:s.pos+len(l)]) != l {
		return false
	}
	s.pos += len(l)
	return true
}

// integer consumes a canonical base-10 integer: an optional minus sign
// and up to 18 digits with no leading zero — exactly the language %d
// prints for the coordinate ranges that fit an int without overflowing
// this accumulation. "-0", "007", 19+ digits and floats all fail, pushing
// the input to the reflective path.
func (s *canonScanner) integer() (int, bool) {
	p := s.pos
	neg := false
	if p < len(s.data) && s.data[p] == '-' {
		neg = true
		p++
	}
	start := p
	for p < len(s.data) && s.data[p] >= '0' && s.data[p] <= '9' {
		p++
	}
	n := p - start
	if n == 0 || n > 18 {
		return 0, false
	}
	if s.data[start] == '0' && (n > 1 || neg) {
		return 0, false
	}
	v := 0
	for i := start; i < p; i++ {
		v = v*10 + int(s.data[i]-'0')
	}
	if neg {
		v = -v
	}
	s.pos = p
	return v, true
}

// parseCanonicalEvents decodes data iff it is a whole canonical event
// array (or the JSON null the reflective path would decode to a nil
// slice). ok=false means "not canonical", never "bad input" — the caller
// re-decodes through encoding/json for the verdict.
func parseCanonicalEvents[C any](data []byte) ([]Event[C], bool) {
	events, end, ok := ParseCanonicalEventArray[C](data, 0)
	if !ok || end != len(data) {
		return nil, false
	}
	return events, true
}

// ParseCanonicalEventArray scans one canonical event array (`[...]` with
// no whitespace, or `null`) starting at pos, returning the events and the
// offset just past the array. ok=false means the bytes deviate from the
// canonical encoding in any way — the caller must fall back to
// encoding/json, which defines both the accepted language and the error.
// Exported for the WAL's batch-envelope fast path, which embeds this
// array inside its own canonical framing.
func ParseCanonicalEventArray[C any](data []byte, pos int) (events []Event[C], end int, ok bool) {
	if _, hasFast := any((*C)(nil)).(wireSetter); !hasFast {
		return nil, 0, false
	}
	s := &canonScanner{data: data, pos: pos}
	if s.lit(`null`) {
		return nil, s.pos, true
	}
	if !s.lit(`[`) {
		return nil, 0, false
	}
	if s.lit(`]`) {
		return []Event[C]{}, s.pos, true
	}
	for {
		events = append(events, Event[C]{})
		if !canonEvent(s, &events[len(events)-1]) {
			return nil, 0, false
		}
		if s.lit(`]`) {
			return events, s.pos, true
		}
		if !s.lit(`,`) {
			return nil, 0, false
		}
	}
}

// ParseCanonicalCoordArray scans one canonical coordinate array — what
// json.Marshal writes for a []C: `null`, `[]` or `[{"x":1,"y":2},...]`
// with no whitespace — starting at pos, returning the coordinates and the
// offset just past the array. Like ParseCanonicalEventArray, ok=false
// means "not canonical", never "bad input": the caller falls back to
// encoding/json for the result and the error. The WAL's snapshot reader
// embeds it in its own canonical framing.
func ParseCanonicalCoordArray[C any](data []byte, pos int) (coords []C, end int, ok bool) {
	if _, hasFast := any((*C)(nil)).(wireSetter); !hasFast {
		return nil, 0, false
	}
	s := &canonScanner{data: data, pos: pos}
	if s.lit(`null`) {
		return nil, s.pos, true
	}
	if !s.lit(`[`) {
		return nil, 0, false
	}
	if s.lit(`]`) {
		return []C{}, s.pos, true
	}
	for {
		var zero C
		coords = append(coords, zero)
		if !s.lit(`{"x":`) || !canonCoord(s, &coords[len(coords)-1]) {
			return nil, 0, false
		}
		if s.lit(`]`) {
			return coords, s.pos, true
		}
		if !s.lit(`,`) {
			return nil, 0, false
		}
	}
}

// ParseCanonicalCoord scans one canonical coordinate object — what
// json.Marshal writes for a C, e.g. {"x":1,"y":2} — starting at pos,
// returning the coordinate and the offset just past it. ok=false means
// the bytes deviate from the canonical encoding (or the coordinate's
// SetWire rejects them); the caller falls back to encoding/json. mfpd's
// route requests embed it in their own canonical framing.
func ParseCanonicalCoord[C any](data []byte, pos int) (c C, end int, ok bool) {
	if _, hasFast := any((*C)(nil)).(wireSetter); !hasFast {
		return c, 0, false
	}
	s := &canonScanner{data: data, pos: pos}
	if !s.lit(`{"x":`) || !canonCoord(s, &c) {
		return c, 0, false
	}
	return c, s.pos, true
}

// canonEvent scans one canonical event object into e. The op prefix pins
// the key order, so a single lit call per op recognises everything up to
// the first coordinate value.
func canonEvent[C any](s *canonScanner, e *Event[C]) bool {
	var op Op
	switch {
	case s.lit(`{"op":"add","x":`):
		op = Add
	case s.lit(`{"op":"clear","x":`):
		op = Clear
	default:
		return false
	}
	e.Op = op
	return canonCoord(s, &e.Node)
}

// canonCoord scans the rest of a canonical coordinate object after its
// `"x":` key — `X,"y":Y}` or `X,"y":Y,"z":Z}` — into c through the
// coordinate's SetWire hook, whose presence the array parsers checked.
func canonCoord[C any](s *canonScanner, c *C) bool {
	x, ok := s.integer()
	if !ok || !s.lit(`,"y":`) {
		return false
	}
	y, ok := s.integer()
	if !ok {
		return false
	}
	z, hasZ := 0, false
	if s.lit(`,"z":`) {
		if z, ok = s.integer(); !ok {
			return false
		}
		hasZ = true
	}
	if !s.lit(`}`) {
		return false
	}
	return any(c).(wireSetter).SetWire(x, y, z, hasZ) == nil
}

// wireGetter is the encode-side mirror of wireSetter: the coordinate's
// wire fields, hasZ reporting whether it encodes a z. Coordinate types
// that do not implement it are encoded by encoding/json instead.
type wireGetter interface {
	Wire() (x, y, z int, hasZ bool)
}

// AppendCanonicalEventArray appends events to dst as exactly the bytes
// json.Marshal writes for the slice (`null` for a nil slice), without
// reflection. ok=false — dst returned unchanged — when C has no Wire
// method or an event carries an invalid op; the caller then encodes
// through encoding/json, which also reports the error.
func AppendCanonicalEventArray[C any](dst []byte, events []Event[C]) ([]byte, bool) {
	if _, hasFast := any((*C)(nil)).(wireGetter); !hasFast {
		return dst, false
	}
	if events == nil {
		return append(dst, `null`...), true
	}
	start := len(dst)
	dst = append(dst, '[')
	for i := range events {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch events[i].Op {
		case Add:
			dst = append(dst, `{"op":"add","x":`...)
		case Clear:
			dst = append(dst, `{"op":"clear","x":`...)
		default:
			return dst[:start], false
		}
		dst = appendWire(dst, &events[i].Node)
	}
	return append(dst, ']'), true
}

// AppendCanonicalCoordArray appends coords to dst as exactly the bytes
// json.Marshal writes for the slice (`null` for a nil slice), without
// reflection. ok=false — dst returned unchanged — when C has no Wire
// method.
func AppendCanonicalCoordArray[C any](dst []byte, coords []C) ([]byte, bool) {
	if _, hasFast := any((*C)(nil)).(wireGetter); !hasFast {
		return dst, false
	}
	if coords == nil {
		return append(dst, `null`...), true
	}
	dst = append(dst, '[')
	for i := range coords {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"x":`...)
		dst = appendWire(dst, &coords[i])
	}
	return append(dst, ']'), true
}

// appendWire appends the rest of a coordinate object after its `"x":`
// key, the inverse of canonCoord.
func appendWire[C any](dst []byte, c *C) []byte {
	x, y, z, hasZ := any(c).(wireGetter).Wire()
	dst = strconv.AppendInt(dst, int64(x), 10)
	dst = append(dst, `,"y":`...)
	dst = strconv.AppendInt(dst, int64(y), 10)
	if hasZ {
		dst = append(dst, `,"z":`...)
		dst = strconv.AppendInt(dst, int64(z), 10)
	}
	return append(dst, '}')
}
