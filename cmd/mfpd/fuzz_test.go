package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/routing"
	"repro/internal/shard"
)

// FuzzHandleEvents throws arbitrary bodies at the events endpoint of a
// live handler, once on an 8×8 2-D mesh and once on an 8×8×8 3-D mesh:
// every request must settle as 200, 400 or 413 (the meshes exist and
// nothing administrative races), the service must never panic, and a mesh
// that accepted a batch must still satisfy the snapshot invariants.
func FuzzHandleEvents(f *testing.F) {
	// Seeded corpus mirroring the decoder corpus plus mesh-boundary cases:
	// truncated JSON, out-of-bounds coordinates for the 8×8 test meshes,
	// duplicate add/clear churn, and 3-D events with a valid, missing and
	// out-of-range z.
	for _, seed := range []string{
		`[]`,
		`[{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":3,"y":4},{"op":"clear","x":3,"y":4},{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":1,"y":1},{"op":"add","x":1,"y":1},{"op":"clear","x":1,"y":1},{"op":"clear","x":1,"y":1}]`,
		`[{"op":"add","x":8,"y":0}]`,
		`[{"op":"add","x":-1,"y":3}]`,
		`[{"op":"add","x":3,"y":99999999}]`,
		`[{"op":"add","x":3`,
		`[{"op":"add","x":3,"y":4}] trailing`,
		`[{"op":"boom","x":1,"y":1}]`,
		`{"not":"an array"}`,
		`null`,
		"",
		`[{"op":"add","x":3,"y":4,"z":5},{"op":"add","x":4,"y":5,"z":6},{"op":"clear","x":3,"y":4,"z":5}]`,
		`[{"op":"add","x":3,"y":4,"z":5},{"op":"add","x":3,"y":4}]`,
		`[{"op":"add","x":3,"y":4,"z":8}]`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh service per input keeps crashers self-contained: the
		// archived reproducer alone replays the failure, with no hidden
		// state accumulated from earlier inputs.
		mgr := shard.NewManager(shard.Config{})
		defer mgr.Close()
		flat, err := mgr.Create("flat", grid.New(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		cube, err := mgr.Create3("cube", grid3.New(8, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(mgr)
		postFuzzEvents(t, srv, flat, data)
		postFuzzEvents(t, srv, cube, data)
	})
}

// postFuzzEvents posts one fuzz body to the mesh's events endpoint and
// checks the reply status and the mesh's snapshot invariants.
func postFuzzEvents[C any, T kernel.Topology[C]](t *testing.T, srv *server, sh *shard.Shard[C, T], data []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/meshes/"+sh.Name()+"/events", bytes.NewReader(data))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%s, body %q: status %d, want 200, 400 or 413", sh.Mesh(), data, rec.Code)
	}
	v, err := sh.Read()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Snapshot.Validate(); err != nil {
		t.Fatalf("%s: snapshot invariants broken after body %q: %v", sh.Mesh(), data, err)
	}
}

// appendRouteReply appends the single-pair reply for a recorded route,
// through the appender the route handler writes AppendPath's path with.
func appendRouteReply(dst []byte, version uint64, hit bool, route *routing.Route) []byte {
	return appendPathReply(dst, version, hit, route.Src, route.Dst, route.Path(), route.AbnormalHops)
}

// FuzzRouteReply compares the route reply appenders with their
// encoding/json references: a single-pair reply over a synthetic
// trajectory, and a batch whose odd pairs failed with the fuzzed error
// text (escaped exactly as encoding/json escapes it, HTML escaping
// included).
func FuzzRouteReply(f *testing.F) {
	f.Add(uint64(5), true, 1, 4, 10, 4, 18, 7, "routing: endpoints (0,0) -> (40,0) outside mesh 12x12")
	f.Add(uint64(0), false, -1, 0, 3, 3, 0, 0, `<>&"\ `+"\x00\x01\b\f\n\r\t\x1f\x7f")
	f.Add(^uint64(0), true, 255, 0, 0, 255, 300, 299, "\xff\xfe bad \xc3 utf-8 \u2028\u2029 é 日本 \xed\xa0\x80")
	f.Add(uint64(1), false, 2047, 2047, -5, 9, -1, -3, "")
	f.Fuzz(func(t *testing.T, version uint64, hit bool, sx, sy, dx, dy, length, abnormal int, msg string) {
		route := &routing.Route{Src: grid.XY(sx, sy), Dst: grid.XY(dx, dy), AbnormalHops: abnormal}
		for k := 0; k < length&63; k++ {
			route.Hops = append(route.Hops, routing.Hop{To: grid.XY(sx+k*dx, sy-k*dy)})
		}
		if got, want := appendRouteReply(nil, version, hit, route), referenceRouteReply(version, hit, route); !bytes.Equal(got, want) {
			t.Fatalf("route reply\n got %s\nwant %s", got, want)
		}

		reply := batchRouteReply{Version: version, CacheHit: hit, Routes: []batchRouteResult{}}
		got := appendBatchHead(nil, version, hit)
		for i := 0; i < abnormal&7; i++ {
			res := batchRouteResult{Length: length + i, AbnormalHops: abnormal - i}
			var err error
			if i%2 == 1 {
				err = errors.New(msg)
				res.Error = msg
			}
			reply.Routes = append(reply.Routes, res)
			if i > 0 {
				got = append(got, ',')
			}
			got = appendBatchResult(got, res.Length, res.AbnormalHops, err)
		}
		got = append(got, "]}\n"...)
		if want := referenceJSON(reply); !bytes.Equal(got, want) {
			t.Fatalf("batch reply\n got %s\nwant %s", got, want)
		}
	})
}

// referenceDecodeRoute is the encoding/json-only /route decoder: one
// Decode straight from the capped body, then a check that nothing but
// whitespace follows.
func referenceDecodeRoute(body io.Reader) (routeRequest, error) {
	var req routeRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		return routeRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return routeRequest{}, errRouteTrailing
	}
	return req, nil
}

// FuzzRouteRequest holds the /route handler, whose decoder scans canonical
// bodies by hand, to the encoding/json-only decoder: for any body the
// status, the content type and the reply bytes (an error envelope or a
// route reply) must be equal.
func FuzzRouteRequest(f *testing.F) {
	pair := func(sx, sy, dx, dy int) string {
		return fmt.Sprintf(`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, sx, sy, dx, dy)
	}
	batch := func(pairs ...string) string { return `{"pairs":[` + strings.Join(pairs, ",") + `]}` }
	pad := strings.Repeat(" ", maxRouteBody)
	for _, seed := range []string{
		pair(0, 3, 15, 12),
		pair(1, 1, 1, 14),
		pair(6, 6, 0, 0), // blocked source
		pair(3, 3, 3, 3),
		batch(pair(0, 3, 15, 12), pair(6, 6, 0, 0), pair(-1, 0, 4, 4), pair(2, 2, 2, 2)),
		batch(strings.TrimSuffix(strings.Repeat(pair(0, 0, 1, 1)+",", maxRoutePairs+1), ",")), // 413: too many pairs
		`{"pairs":[]}`,
		`{"pairs":null}`,
		`{}`,
		`{"src":{"x":1,"y":1}}`,
		pair(0, 3, 15, 12) + ` extra`,
		pair(0, 3, 15, 12) + "\n",
		" " + pair(0, 3, 15, 12),
		pad + pair(0, 3, 15, 12), // 413: the cap cuts the document
		pair(0, 3, 15, 12) + pad, // 400: the cap cuts the whitespace after it
		`{"src":{"x":-1,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":-0,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":007,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1.0,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1e1,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":123456789012345678,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1234567890123456789,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":99999999999999999999999,"y":0},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1,"y":1,"z":2},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1,"x":2,"y":1},"dst":{"x":4,"y":4}}`,
		`{"src":{"x":1,"y":1},"src":{"x":2,"y":2},"dst":{"x":4,"y":4}}`,
		`{"dst":{"x":4,"y":4},"src":{"x":1,"y":1}}`,
		`{"src":{"x":1,"y":1},"dst":{"x":4,"y":4},"pairs":[` + pair(0, 0, 1, 1) + `]}`,
		`{"SRC":{"X":1,"Y":1},"Dst":{"x":4,"y":4}}`,
		`{"pairs":[` + pair(0, 0, 1, 1),
		"",
	} {
		f.Add([]byte(seed))
	}

	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	sh, err := mgr.Create("m", grid.New(16, 16))
	if err != nil {
		f.Fatal(err)
	}
	var events []engine.Event
	for _, c := range []grid.Coord{grid.XY(5, 5), grid.XY(6, 6), grid.XY(7, 5), grid.XY(10, 9), grid.XY(11, 10)} {
		events = append(events, engine.Event{Op: engine.Add, Node: c})
	}
	if _, err := sh.Apply(events); err != nil {
		f.Fatal(err)
	}
	if _, _, _, err := sh.Planner(); err != nil { // later queries all hit the memo
		f.Fatal(err)
	}
	srv := newServer(mgr)

	f.Fuzz(func(t *testing.T, body []byte) {
		got := httptest.NewRecorder()
		srv.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/meshes/m/route", bytes.NewReader(body)))
		want := httptest.NewRecorder()
		req, err := referenceDecodeRoute(http.MaxBytesReader(want, io.NopCloser(bytes.NewReader(body)), maxRouteBody))
		srv.answerRoute(want, sh, req, err)

		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("body %.200q:\n got %d %s\nwant %d %s", body, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	})
}
