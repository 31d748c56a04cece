package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
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
