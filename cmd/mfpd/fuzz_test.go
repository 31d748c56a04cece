package main

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

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
