package kernel

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
)

// This file pins the reflection-free coordinate codecs to encoding/json:
// ParseCanonicalCoordArray must decode exactly what json.Unmarshal
// decodes into a []C whenever it takes an input, and decline everything
// else; the canonical appenders must write exactly the bytes json.Marshal
// writes, or decline.

// checkCoordParseAgrees runs ParseCanonicalCoordArray over a whole input
// and, when the fast path takes it, requires json.Unmarshal to accept it
// with identical coordinates (nil for null, empty for []). It reports
// whether the fast path took the input.
func checkCoordParseAgrees[C any](t *testing.T, data []byte) bool {
	t.Helper()
	got, end, ok := ParseCanonicalCoordArray[C](data, 0)
	if !ok || end != len(data) {
		return false
	}
	var want []C
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast path took %q, encoding/json rejects it: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q: %v, encoding/json %v", data, got, want)
	}
	return true
}

func TestCanonicalCoordArrayRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		coords2 := make([]grid.Coord, rng.Intn(20))
		for i := range coords2 {
			coords2[i] = grid.XY(rng.Intn(2000)-500, rng.Intn(2000)-500)
		}
		data, err := json.Marshal(coords2)
		if err != nil {
			t.Fatal(err)
		}
		if !checkCoordParseAgrees[grid.Coord](t, data) {
			t.Fatalf("own encoding not canonical: %s", data)
		}
		coords3 := make([]grid3.Coord, rng.Intn(20))
		for i := range coords3 {
			coords3[i] = grid3.XYZ(rng.Intn(2000)-500, rng.Intn(2000)-500, rng.Intn(2000)-500)
		}
		if data, err = json.Marshal(coords3); err != nil {
			t.Fatal(err)
		}
		if !checkCoordParseAgrees[grid3.Coord](t, data) {
			t.Fatalf("own encoding not canonical: %s", data)
		}
	}
	// json.Marshal writes null for a nil slice and [] for an empty one.
	for _, c := range []string{`null`, `[]`} {
		if !checkCoordParseAgrees[grid.Coord](t, []byte(c)) || !checkCoordParseAgrees[grid3.Coord](t, []byte(c)) {
			t.Fatalf("fast path declined canonical %q", c)
		}
	}
	// The parser stops at the array's end inside a larger record.
	data := []byte(`{"faults":[{"x":1,"y":2}],"more":1}`)
	coords, end, ok := ParseCanonicalCoordArray[grid.Coord](data, len(`{"faults":`))
	if !ok || string(data[end:]) != `,"more":1}` || len(coords) != 1 || coords[0] != grid.XY(1, 2) {
		t.Fatalf("embedded array: %v end %d ok %v", coords, end, ok)
	}
}

// Every deviation from the canonical form is declined; the fallback's
// verdict is encoding/json's, whichever way it goes.
func TestCanonicalCoordArrayDeclines(t *testing.T) {
	cases2 := []string{
		` [{"x":3,"y":4}]`,                  // leading whitespace
		`[{"x":3,"y":4}] `,                  // trailing whitespace
		`[ {"x":3,"y":4}]`,                  // inner whitespace
		`[{"y":4,"x":3}]`,                   // reordered keys
		`[{"x":03,"y":4}]`,                  // leading zero
		`[{"x":3.0,"y":4}]`,                 // float
		`[{"x":-0,"y":4}]`,                  // negative zero
		`[{"x":3,"y":4,"q":1}]`,             // unknown field
		`[{"x":3,"y":4,"z":5}]`,             // z on a 2-D coordinate
		`[{"x":3}]`,                         // missing y
		`[{"x":3,"y":4},]`,                  // trailing comma
		`[{"x":3,"y":4}`,                    // truncated
		`{"x":3,"y":4}`,                     // object, not array
		`[{"x":"3","y":4}]`,                 // string coordinate
		`[{"x":null,"y":4}]`,                // null coordinate
		`[{"x":1234567890123456789,"y":4}]`, // 19 digits
		``,
	}
	for _, c := range cases2 {
		if checkCoordParseAgrees[grid.Coord](t, []byte(c)) {
			t.Errorf("fast path accepted non-canonical %q", c)
		}
	}
	cases3 := []string{
		`[{"x":3,"y":4}]`,         // a 3-D coordinate without z
		`[{"x":3,"z":5,"y":4}]`,   // z before y
		`[{"x":3,"y":4,"z":5.5}]`, // float z
	}
	for _, c := range cases3 {
		if checkCoordParseAgrees[grid3.Coord](t, []byte(c)) {
			t.Errorf("fast path accepted non-canonical %q", c)
		}
	}
	// A 3-D coordinate without z is declined, and encoding/json rejects it
	// with the coordinate type's own error.
	var coords []grid3.Coord
	err := json.Unmarshal([]byte(`[{"x":3,"y":4}]`), &coords)
	if err == nil || err.Error() != `grid3: coordinate {"x":3,"y":4} misses x, y or z` {
		t.Fatalf("3-D coordinate without z: %v", err)
	}
}

// Random byte mutations of canonical encodings never make the fast path
// disagree with encoding/json.
func TestCanonicalCoordArrayMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mutants := []byte(` ,:[]{}"0123456789-xyz.eE`)
	for trial := 0; trial < 500; trial++ {
		coords := make([]grid3.Coord, 1+rng.Intn(5))
		for i := range coords {
			coords[i] = grid3.XYZ(rng.Intn(200)-50, rng.Intn(200)-50, rng.Intn(200)-50)
		}
		data, err := json.Marshal(coords)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= rng.Intn(3); k++ {
			data[rng.Intn(len(data))] = mutants[rng.Intn(len(mutants))]
		}
		checkCoordParseAgrees[grid.Coord](t, data)
		checkCoordParseAgrees[grid3.Coord](t, data)
	}
}

// The appenders write json.Marshal's bytes for 2-D and 3-D slices, nil
// and empty ones included, after whatever dst already holds.
func TestCanonicalAppendersMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(got []byte, ok bool, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, append([]byte("head:"), want...)) {
			t.Fatalf("appended %q (ok %v), json.Marshal %q", got, ok, want)
		}
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20)
		if trial == 0 {
			n = 0
		}
		ev2, ev3 := randomEvents2D(rng, n), randomEvents3D(rng, n)
		c2, c3 := make([]grid.Coord, n), make([]grid3.Coord, n)
		for i := range ev2 {
			c2[i], c3[i] = ev2[i].Node, ev3[i].Node
		}
		got, ok := AppendCanonicalEventArray([]byte("head:"), ev2)
		check(got, ok, ev2)
		got, ok = AppendCanonicalEventArray([]byte("head:"), ev3)
		check(got, ok, ev3)
		got, ok = AppendCanonicalCoordArray([]byte("head:"), c2)
		check(got, ok, c2)
		got, ok = AppendCanonicalCoordArray([]byte("head:"), c3)
		check(got, ok, c3)
	}
	got, ok := AppendCanonicalEventArray[grid.Coord]([]byte("head:"), nil)
	check(got, ok, []Event[grid.Coord](nil))
	got, ok = AppendCanonicalCoordArray[grid3.Coord]([]byte("head:"), nil)
	check(got, ok, []grid3.Coord(nil))

	// An invalid op is declined with dst unchanged; json.Marshal reports it.
	bad := []Event[grid.Coord]{{Op: Add, Node: grid.XY(1, 2)}, {Op: Op(7)}}
	if got, ok := AppendCanonicalEventArray([]byte("head:"), bad); ok || string(got) != "head:" {
		t.Fatalf("invalid op: appended %q ok %v", got, ok)
	}
	// A coordinate type without Wire is declined.
	type plain struct{ X, Y int }
	if got, ok := AppendCanonicalCoordArray([]byte("head:"), []plain{{1, 2}}); ok || string(got) != "head:" {
		t.Fatalf("coordinate without Wire: appended %q ok %v", got, ok)
	}
}
