package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/shard"
)

// newTestServer starts a server over a fresh manager holding one n×n mesh
// named "m".
func newTestServer(t *testing.T, n int, cfg shard.Config) (*httptest.Server, *shard.Manager) {
	t.Helper()
	mgr := shard.NewManager(cfg)
	if _, err := mgr.Create("m", grid.New(n, n)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func postEvents(t *testing.T, ts *httptest.Server, mesh string, events []engine.Event) (eventsReply, *http.Response) {
	t.Helper()
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/meshes/"+mesh+"/events", body)
	defer resp.Body.Close()
	var reply eventsReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
	}
	return reply, resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestEventBatchAndQueries(t *testing.T) {
	ts, _ := newTestServer(t, 12, shard.Config{})

	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, health)
	}

	// A V of three faults plus a duplicate add: 3 applied, 1 ignored. Its
	// polygon fills the concave row gap at (5,4); its faulty block grows
	// to the full [4..6]x[4..5] rectangle.
	reply, resp := postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Add, Node: grid.XY(4, 4)},
		{Op: engine.Add, Node: grid.XY(6, 4)},
		{Op: engine.Add, Node: grid.XY(5, 5)},
		{Op: engine.Add, Node: grid.XY(4, 4)},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if reply.Applied != 3 || reply.Ignored != 1 || reply.Faults != 3 || reply.Components != 1 {
		t.Fatalf("events reply: %+v", reply)
	}

	// The concave gap is disabled, a block-only node is enabled, a remote
	// node is safe, a fault is faulty.
	for _, tc := range []struct {
		x, y int
		want string
	}{
		{4, 4, "faulty"},
		{5, 4, "disabled"},
		{4, 5, "enabled"},
		{0, 0, "safe"},
	} {
		var st statusReply
		if resp := getJSON(t, fmt.Sprintf("%s/v1/meshes/m/status?x=%d&y=%d", ts.URL, tc.x, tc.y), &st); resp.StatusCode != 200 {
			t.Fatalf("status(%d,%d): %d", tc.x, tc.y, resp.StatusCode)
		}
		if st.Class != tc.want {
			t.Fatalf("status(%d,%d) = %q, want %q", tc.x, tc.y, st.Class, tc.want)
		}
	}

	var polys polygonsReply[xy]
	getJSON(t, ts.URL+"/v1/meshes/m/polygons", &polys)
	if len(polys.Polygons) != 1 || len(polys.Polygons[0].Faults) != 3 || len(polys.Polygons[0].Polygon) != 4 {
		t.Fatalf("polygons reply: %+v", polys)
	}

	var stats statsReply
	getJSON(t, ts.URL+"/v1/meshes/m/stats", &stats)
	if stats.Faults != 3 || stats.Components != 1 || !stats.Resident {
		t.Fatalf("stats reply: %+v", stats)
	}
	if stats.Disabled == nil || *stats.Disabled != 4 || *stats.DisabledNonFaulty != 1 || *stats.Unsafe != 6 {
		t.Fatalf("snapshot metrics in stats reply: %+v", stats)
	}
	if stats.Version != reply.Version {
		t.Fatalf("stats version %d, events reply said %d", stats.Version, reply.Version)
	}

	// Clearing every fault empties the mesh.
	reply, _ = postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Clear, Node: grid.XY(4, 4)},
		{Op: engine.Clear, Node: grid.XY(6, 4)},
		{Op: engine.Clear, Node: grid.XY(5, 5)},
	})
	if reply.Faults != 0 || reply.Components != 0 {
		t.Fatalf("after teardown: %+v", reply)
	}
}

func TestAdminCreateListDelete(t *testing.T) {
	ts, mgr := newTestServer(t, 8, shard.Config{})

	if resp := postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"tenant-a","width":16,"height":9}`)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	// Duplicate name conflicts, bad shapes and names are rejected.
	if resp := postJSON(t, ts.URL+"/v1/meshes", []byte(`{"name":"tenant-a","width":4,"height":4}`)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", resp.StatusCode)
	}
	for _, body := range []string{
		`{"name":"x","width":0,"height":4}`,
		`{"name":"x","width":4,"height":99999}`,
		`{"name":"bad name","width":4,"height":4}`,
		`{"width":4,"height":4}`,
		`not json`,
		`{"name":"x","width":4,"height":4} trailing`,
		`{"name":"x","width":4,"height":4}{"name":"y","width":4,"height":4}`,
	} {
		if resp := postJSON(t, ts.URL+"/v1/meshes", []byte(body)); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create %s: status %d", body, resp.StatusCode)
		}
	}

	var list meshesReply
	if resp := getJSON(t, ts.URL+"/v1/meshes", &list); resp.StatusCode != 200 {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	if len(list.Meshes) != 2 || list.Meshes[0].Name != "m" || list.Meshes[1].Name != "tenant-a" {
		t.Fatalf("list: %+v", list.Meshes)
	}
	if list.Meshes[1].Width != 16 || list.Meshes[1].Height != 9 {
		t.Fatalf("tenant-a shape: %+v", list.Meshes[1])
	}

	// The mesh-count bound surfaces as 429 (eviction cannot reclaim what
	// Create allocates, so the cap is the service's memory backstop).
	tsCapped, _ := newTestServer(t, 8, shard.Config{MaxMeshes: 1})
	if resp := postJSON(t, tsCapped.URL+"/v1/meshes", []byte(`{"name":"x","width":4,"height":4}`)); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond -max-meshes: status %d", resp.StatusCode)
	}

	if resp := doDelete(t, ts.URL+"/v1/meshes/tenant-a"); resp.StatusCode != 200 {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/v1/meshes/tenant-a"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: %d", resp.StatusCode)
	}
	if mgr.Len() != 1 {
		t.Fatalf("manager holds %d meshes", mgr.Len())
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{})

	// Out-of-mesh event rejects the batch.
	if _, resp := postEvents(t, ts, "m", []engine.Event{{Op: engine.Add, Node: grid.XY(42, 0)}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-mesh event: status %d", resp.StatusCode)
	}
	// Malformed, truncated and trailing-garbage bodies.
	for _, body := range []string{
		`{"not":"an array"}`,
		`[{"op":"add","x":1`,
		`[{"op":"add","x":1,"y":1}] trailing`,
		`[{"op":"explode","x":1,"y":1}]`,
		`[{"op":"add","x":1}]`,
	} {
		resp := postJSON(t, ts.URL+"/v1/meshes/m/events", []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d", body, resp.StatusCode)
		}
	}
	// Wrong methods.
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/events", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /events: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/meshes/m", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on mesh root: status %d", resp.StatusCode)
	}
	if resp := doDelete(t, ts.URL+"/v1/meshes"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE on collection: status %d", resp.StatusCode)
	}
	// Unknown mesh and unknown sub-resource.
	if resp := getJSON(t, ts.URL+"/v1/meshes/nope/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown mesh: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sub-resource: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", resp.StatusCode)
	}
	// Bad status queries.
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/status?x=nope&y=2", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad status query: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/status?x=99&y=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-mesh status query: status %d", resp.StatusCode)
	}
}

// An events body over the configured cap is refused without being decoded.
func TestOversizedBody(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{})
	big := "[" + strings.Repeat(`{"op":"add","x":1,"y":1},`, maxEventBody/24) + `{"op":"add","x":1,"y":1}]`
	if len(big) <= maxEventBody {
		t.Fatalf("test body too small: %d", len(big))
	}
	resp := postJSON(t, ts.URL+"/v1/meshes/m/events", []byte(big))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// Nothing was applied.
	var stats statsReply
	getJSON(t, ts.URL+"/v1/meshes/m/stats", &stats)
	if stats.Version != 0 {
		t.Fatalf("oversized body applied events: %+v", stats)
	}
}

// Deleting a mesh while event batches are in flight: every request settles
// as 200 (applied before the drain), 404 (name already gone) or 409 (shard
// closing); nothing hangs or panics.
func TestDeleteWhileEventsInFlight(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})

	var wg sync.WaitGroup
	start := make(chan struct{})
	codes := make(chan int, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				body, _ := json.Marshal([]engine.Event{{Op: engine.Add, Node: grid.XY(w, i)}})
				resp := postJSON(t, ts.URL+"/v1/meshes/m/events", body)
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}(w)
	}
	close(start)
	resp := doDelete(t, ts.URL+"/v1/meshes/m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("unexpected status %d during delete race", code)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: status %d", resp.StatusCode)
	}
}

// Stats on an evicted mesh must not force a rebuild (monitoring would
// otherwise defeat -max-resident): the reply omits snapshot metrics and
// the mesh stays evicted; a status query then rebuilds on demand.
func TestStatsDoesNotForceResidency(t *testing.T) {
	ts, mgr := newTestServer(t, 8, shard.Config{MaxResident: 1})
	if _, err := mgr.Create("n", grid.New(8, 8)); err != nil {
		t.Fatal(err)
	}
	// Traffic on n evicts m.
	if _, resp := postEvents(t, ts, "n", []engine.Event{{Op: engine.Add, Node: grid.XY(1, 1)}}); resp.StatusCode != 200 {
		t.Fatalf("events on n: %d", resp.StatusCode)
	}
	sh, err := shard.Get[grid.Coord, grid.Mesh](mgr, "m")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for sh.Stats().Resident {
		if time.Now().After(deadline) {
			t.Fatal("m never evicted")
		}
		time.Sleep(time.Millisecond)
	}

	rebuildsBefore := sh.Stats().Rebuilds
	var stats statsReply
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/stats", &stats); resp.StatusCode != 200 {
		t.Fatalf("stats on evicted mesh: %d", resp.StatusCode)
	}
	if stats.Resident || stats.Disabled != nil || stats.MeanPolygonSize != nil {
		t.Fatalf("evicted stats should omit snapshot metrics: %+v", stats)
	}
	if got := sh.Stats().Rebuilds; got != rebuildsBefore {
		t.Fatalf("stats query forced a rebuild (%d -> %d)", rebuildsBefore, got)
	}
	// A status query does rebuild, transparently.
	if resp := getJSON(t, ts.URL+"/v1/meshes/m/status?x=1&y=1", nil); resp.StatusCode != 200 {
		t.Fatalf("status after eviction: %d", resp.StatusCode)
	}
	if got := sh.Stats().Rebuilds; got != rebuildsBefore+1 {
		t.Fatalf("status query did not rebuild (%d -> %d)", rebuildsBefore, got)
	}
}

// Concurrent readers against writers across two meshes: every response is
// served from one immutable view, which -race plus the invariant checks
// verify. One mesh is evicted and rebuilt along the way (MaxResident 1).
func TestConcurrentQueriesUnderLoad(t *testing.T) {
	ts, mgr := newTestServer(t, 24, shard.Config{MaxResident: 1})
	if _, err := mgr.Create("n", grid.New(24, 24)); err != nil {
		t.Fatal(err)
	}
	meshes := []string{"m", "n"}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mesh := meshes[rng.Intn(2)]
				var stats statsReply
				if resp := getJSON(t, ts.URL+"/v1/meshes/"+mesh+"/stats", &stats); resp.StatusCode != 200 {
					t.Errorf("stats under load: %d", resp.StatusCode)
					return
				}
				if stats.Disabled != nil && (*stats.DisabledNonFaulty < 0 || *stats.Disabled > *stats.Unsafe) {
					t.Errorf("inconsistent stats under load: %+v", stats)
					return
				}
				var st statusReply
				if resp := getJSON(t, fmt.Sprintf("%s/v1/meshes/%s/status?x=%d&y=%d", ts.URL, mesh, rng.Intn(24), rng.Intn(24)), &st); resp.StatusCode != 200 {
					t.Errorf("status under load: %d", resp.StatusCode)
					return
				}
			}
		}(int64(r))
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		batch := make([]engine.Event, 0, 8)
		for j := 0; j < 8; j++ {
			op := engine.Add
			if rng.Intn(2) == 0 {
				op = engine.Clear
			}
			batch = append(batch, engine.Event{Op: op, Node: grid.XY(rng.Intn(24), rng.Intn(24))})
		}
		if _, resp := postEvents(t, ts, meshes[i%2], batch); resp.StatusCode != 200 {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
}
