package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/routing"
	"repro/internal/shard"
)

// The reference encoders: the route replies as reflected struct shapes, so
// the appenders' output can be compared byte for byte with what
// encoding/json writes for the same reply.

func toXY(c grid.Coord) xy { return xy{c.X, c.Y} }

// routeReply answers a single-pair query with the full trajectory.
type routeReply struct {
	// Version is the shard version the route was computed against;
	// CacheHit reports whether the query reused a memoized planner.
	Version      uint64 `json:"version"`
	CacheHit     bool   `json:"cache_hit"`
	Src          xy     `json:"src"`
	Dst          xy     `json:"dst"`
	Length       int    `json:"length"`
	AbnormalHops int    `json:"abnormal_hops"`
	Path         []xy   `json:"path"`
}

// batchRouteReply answers a batched query with per-pair outcomes (hop
// counts, not full paths).
type batchRouteReply struct {
	Version  uint64             `json:"version"`
	CacheHit bool               `json:"cache_hit"`
	Routes   []batchRouteResult `json:"routes"`
}

type batchRouteResult struct {
	Length       int    `json:"length"`
	AbnormalHops int    `json:"abnormal_hops"`
	Error        string `json:"error,omitempty"`
}

// referenceRouteReply encodes the single-pair reply through encoding/json.
func referenceRouteReply(version uint64, hit bool, route *routing.Route) []byte {
	path := make([]xy, 0, route.Length()+1)
	for _, c := range route.Path() {
		path = append(path, toXY(c))
	}
	return referenceJSON(routeReply{
		Version: version, CacheHit: hit,
		Src: toXY(route.Src), Dst: toXY(route.Dst),
		Length: route.Length(), AbnormalHops: route.AbnormalHops,
		Path: path,
	})
}

// referenceJSON encodes v the way the reflection-based writeJSON does.
func referenceJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func postRoute(t *testing.T, ts *httptest.Server, mesh, body string) (*http.Response, []byte) {
	t.Helper()
	resp := postJSON(t, ts.URL+"/v1/meshes/"+mesh+"/route", []byte(body))
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouteSingle: a single query around a fault cluster returns the full
// path from the live snapshot, with the shard version stamped on it.
func TestRouteSingle(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	reply, _ := postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Add, Node: grid.XY(5, 5)},
		{Op: engine.Add, Node: grid.XY(6, 5)},
		{Op: engine.Add, Node: grid.XY(5, 6)},
	})

	resp, body := postRoute(t, ts, "m", `{"src":{"x":0,"y":5},"dst":{"x":15,"y":5}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr routeReply
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Version != reply.Version {
		t.Fatalf("route version %d, want %d", rr.Version, reply.Version)
	}
	if rr.Length == 0 || len(rr.Path) != rr.Length+1 {
		t.Fatalf("inconsistent route: length %d, path %d nodes", rr.Length, len(rr.Path))
	}
	if rr.AbnormalHops == 0 {
		t.Fatal("route across the cluster must detour")
	}
	if first, last := rr.Path[0], rr.Path[len(rr.Path)-1]; first != (xy{0, 5}) || last != (xy{15, 5}) {
		t.Fatalf("path endpoints %v..%v", first, last)
	}
	if rr.CacheHit {
		t.Fatal("first query after churn cannot be a planner cache hit")
	}

	// The second query at the same version reuses the planner.
	resp, body = postRoute(t, ts, "m", `{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.CacheHit {
		t.Fatal("second query at the same version must hit the planner cache")
	}
}

// TestRouteBatchAndStats: a batched query returns per-pair outcomes in
// order, and the stats endpoint exposes the planner cache hit rate.
func TestRouteBatchAndStats(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	postEvents(t, ts, "m", []engine.Event{
		{Op: engine.Add, Node: grid.XY(8, 8)},
	})

	resp, body := postRoute(t, ts, "m",
		`{"pairs":[
			{"src":{"x":0,"y":8},"dst":{"x":15,"y":8}},
			{"src":{"x":8,"y":8},"dst":{"x":0,"y":0}},
			{"src":{"x":0,"y":0},"dst":{"x":2,"y":0}}
		]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br batchRouteReply
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Routes) != 3 {
		t.Fatalf("%d results, want 3", len(br.Routes))
	}
	if br.Routes[0].Error != "" || br.Routes[0].Length == 0 {
		t.Fatalf("deliverable pair failed: %+v", br.Routes[0])
	}
	if !strings.Contains(br.Routes[1].Error, "disabled") {
		t.Fatalf("blocked-source pair must carry the error, got %+v", br.Routes[1])
	}
	if br.Routes[2].Error != "" || br.Routes[2].Length != 2 {
		t.Fatalf("short pair: %+v", br.Routes[2])
	}

	// Another batch at the same version hits the cache; stats show it.
	postRoute(t, ts, "m", `{"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}]}`)
	sresp, err := http.Get(ts.URL + "/v1/meshes/m/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RouteQueries != 2 || st.RouteCacheHits != 1 || st.PlannerBuilds != 1 {
		t.Fatalf("route stats %d/%d/%d, want 2 queries, 1 hit, 1 build",
			st.RouteQueries, st.RouteCacheHits, st.PlannerBuilds)
	}
}

// TestRouteErrorStatuses: each routing failure surfaces with its own HTTP
// status and a descriptive body.
func TestRouteErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})

	t.Run("blocked endpoint is 409", func(t *testing.T) {
		postEvents(t, ts, "m", []engine.Event{{Op: engine.Add, Node: grid.XY(4, 4)}})
		resp, body := postRoute(t, ts, "m", `{"src":{"x":4,"y":4},"dst":{"x":0,"y":0}}`)
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "disabled") {
			t.Fatalf("unhelpful body %s", body)
		}
	})

	t.Run("border region is 422", func(t *testing.T) {
		// A wall touching the south border: the detour would need the
		// virtual halo outside the mesh.
		var wall []engine.Event
		for y := 0; y < 6; y++ {
			wall = append(wall, engine.Event{Op: engine.Add, Node: grid.XY(8, y)})
		}
		postEvents(t, ts, "m", wall)
		resp, body := postRoute(t, ts, "m", `{"src":{"x":2,"y":2},"dst":{"x":14,"y":2}}`)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "boundary outside the mesh") {
			t.Fatalf("unhelpful body %s", body)
		}
	})

	t.Run("off-mesh endpoint is 400", func(t *testing.T) {
		resp, body := postRoute(t, ts, "m", `{"src":{"x":-1,"y":0},"dst":{"x":3,"y":3}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})

	t.Run("hop budget maps to 422", func(t *testing.T) {
		// MFP polygons are convex, so a live mesh cannot livelock the
		// router; the mapping is still pinned so a budget failure from a
		// future construction bug degrades into a clean 422.
		if got, code := routeStatus(routing.ErrHopBudget); got != http.StatusUnprocessableEntity || code != codeUndeliverable {
			t.Fatalf("ErrHopBudget -> %d %s, want 422 undeliverable", got, code)
		}
		if got, code := routeStatus(fmt.Errorf("wrapped: %w", routing.ErrHopBudget)); got != http.StatusUnprocessableEntity || code != codeUndeliverable {
			t.Fatalf("wrapped ErrHopBudget -> %d %s, want 422 undeliverable", got, code)
		}
		if got, code := routeStatus(errors.New("anything else")); got != http.StatusBadRequest || code != codeBadRequest {
			t.Fatalf("unknown error -> %d %s, want 400 bad_request", got, code)
		}
	})
}

// TestRouteWorkerBudget: the server-wide batch-routing budget hands out
// between 1 and capacity tokens, blocking only for the first, and
// releasing restores the budget.
func TestRouteWorkerBudget(t *testing.T) {
	s := newServer(shard.NewManager(shard.Config{}))
	capTotal := cap(s.routeSem)
	got := s.acquireRouteWorkers(capTotal + 5)
	if got != capTotal {
		t.Fatalf("idle budget handed out %d workers, want the full %d", got, capTotal)
	}
	// Budget exhausted: a second batch still gets one worker once a token
	// frees, never zero, never more than remain.
	s.releaseRouteWorkers(1)
	if got := s.acquireRouteWorkers(capTotal); got != 1 {
		t.Fatalf("contended budget handed out %d workers, want 1", got)
	}
	s.releaseRouteWorkers(capTotal)
	if got := s.acquireRouteWorkers(1); got != 1 {
		t.Fatalf("restored budget handed out %d workers, want 1", got)
	}
	s.releaseRouteWorkers(1)
}

// TestRouteConcurrentBatches: concurrent batched queries all complete
// under the shared worker budget.
func TestRouteConcurrentBatches(t *testing.T) {
	ts, _ := newTestServer(t, 16, shard.Config{})
	postEvents(t, ts, "m", []engine.Event{{Op: engine.Add, Node: grid.XY(8, 8)}})
	var body strings.Builder
	body.WriteString(`{"pairs":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, `{"src":{"x":%d,"y":0},"dst":{"x":%d,"y":15}}`, i%16, (i+7)%16)
	}
	body.WriteString(`]}`)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/meshes/m/route", []byte(body.String()))
			defer resp.Body.Close()
			var br batchRouteReply
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK || len(br.Routes) != 64 {
				errs <- fmt.Errorf("status %d, %d routes", resp.StatusCode, len(br.Routes))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRouteBadRequests: malformed shapes are rejected before any routing.
func TestRouteBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, 8, shard.Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both forms", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1},"pairs":[{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}]}`, http.StatusBadRequest},
		{"src only", `{"src":{"x":0,"y":0}}`, http.StatusBadRequest},
		{"garbage", `not json`, http.StatusBadRequest},
		{"trailing data", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}} extra`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRoute(t, ts, "m", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}

	t.Run("oversized batch", func(t *testing.T) {
		var sb strings.Builder
		sb.WriteString(`{"pairs":[`)
		for i := 0; i <= maxRoutePairs; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`)
		}
		sb.WriteString(`]}`)
		resp, _ := postRoute(t, ts, "m", sb.String())
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/meshes/m/route")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /route: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("failed shard maps to 500", func(t *testing.T) {
		// A shard that latched an internal failure (engine divergence,
		// failing rebuild) is a server-side fault, never a bad request.
		// The latch is unreachable through the public API by design, so
		// the mapping is pinned on the writer directly.
		rec := httptest.NewRecorder()
		writeShardError(rec, fmt.Errorf("read: %w", shard.ErrShardFailed))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("ErrShardFailed -> %d, want 500", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "mesh failed") {
			t.Fatalf("unhelpful body %s", rec.Body.String())
		}
	})

	t.Run("unknown mesh", func(t *testing.T) {
		resp, _ := postRoute(t, ts, "nope", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})
}

// TestRouteRepliesMatchReference serves single and batched queries over a
// clustered fault set and compares every reply byte for byte with the
// encoding/json reference built from the same planner's full routes (a
// batch pair's error text included), and its Content-Length with the
// body.
func TestRouteRepliesMatchReference(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	m := grid.New(40, 40)
	sh, err := mgr.Create("m", m)
	if err != nil {
		t.Fatal(err)
	}
	var events []engine.Event
	fault.InjectWithMargin(m, fault.Clustered, 3, 120, 3).Each(func(c grid.Coord) {
		events = append(events, engine.Event{Op: engine.Add, Node: c})
	})
	if _, err := sh.Apply(events); err != nil {
		t.Fatal(err)
	}
	srv := newServer(mgr)
	serve := func(body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/meshes/m/route", strings.NewReader(body)))
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		return rec.Body.Bytes()
	}

	rng := rand.New(rand.NewSource(5))
	pairs := make([]routing.Query, 64)
	var batch strings.Builder
	batch.WriteString(`{"pairs":[`)
	for i := range pairs {
		// Some endpoints fall off the mesh, so error texts with '>' are
		// part of the batch.
		pairs[i] = routing.Query{
			Src: grid.XY(rng.Intn(m.W+2)-1, rng.Intn(m.H)),
			Dst: grid.XY(rng.Intn(m.W), rng.Intn(m.H+2)-1),
		}
		if i > 0 {
			batch.WriteString(",")
		}
		fmt.Fprintf(&batch, `{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, pairs[i].Src.X, pairs[i].Src.Y, pairs[i].Dst.X, pairs[i].Dst.Y)
	}
	batch.WriteString(`]}`)
	got := serve(batch.String())

	planner, v, _, err := sh.Planner()
	if err != nil {
		t.Fatal(err)
	}
	reply := batchRouteReply{Version: v.Version, CacheHit: true, Routes: make([]batchRouteResult, len(pairs))}
	failed, routed := 0, 0
	for i, res := range planner.RouteAll(pairs, 1) {
		if res.Err != nil {
			reply.Routes[i] = batchRouteResult{Error: res.Err.Error()}
			failed++
			continue
		}
		reply.Routes[i] = batchRouteResult{Length: res.Route.Length(), AbnormalHops: res.Route.AbnormalHops}
		if res.Route.AbnormalHops > 0 {
			routed++
		}
		single := fmt.Sprintf(`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, pairs[i].Src.X, pairs[i].Src.Y, pairs[i].Dst.X, pairs[i].Dst.Y)
		if got, want := serve(single), referenceRouteReply(v.Version, true, res.Route); !bytes.Equal(got, want) {
			t.Fatalf("single %v -> %v:\n got %s\nwant %s", pairs[i].Src, pairs[i].Dst, got, want)
		}
	}
	if failed == 0 || routed == 0 {
		t.Fatalf("fixture has %d failed and %d detouring pairs; want both", failed, routed)
	}
	// The batch was the first query at this version: a planner miss.
	reply.CacheHit = false
	if want := referenceJSON(reply); !bytes.Equal(got, want) {
		t.Fatalf("batch reply\n got %s\nwant %s", got, want)
	}
}
