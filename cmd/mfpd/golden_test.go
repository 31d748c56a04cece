package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/shard"
)

// goldenScript is a fixed /v1 session over one 2-D and one 3-D mesh:
// create, events, status, polygons, stats and 2-D route (single and
// batch), then the error envelopes of every mesh-scoped failure mode.
// Requests run in order against one fresh manager, so every version,
// counter and cache flag in the replies is deterministic.
var goldenScript = []struct{ method, path, body string }{
	{"POST", "/v1/meshes", `{"name":"g2","width":12,"height":12}`},
	{"POST", "/v1/meshes", `{"name":"g3","width":6,"height":6,"depth":6}`},
	{"GET", "/v1/meshes", ``},

	// 2-D: a V of three faults plus a duplicate add, and a far fault.
	{"POST", "/v1/meshes/g2/events", `[{"op":"add","x":4,"y":4},{"op":"add","x":6,"y":4},{"op":"add","x":5,"y":5},{"op":"add","x":4,"y":4},{"op":"add","x":9,"y":2}]`},
	{"POST", "/v1/meshes/g2/events", `[ {"y":2, "x":9, "op":"clear"} ]`},
	{"GET", "/v1/meshes/g2/status?x=4&y=4", ``},
	{"GET", "/v1/meshes/g2/status?x=5&y=4", ``},
	{"GET", "/v1/meshes/g2/status?x=4&y=5", ``},
	{"GET", "/v1/meshes/g2/status?x=0&y=0", ``},
	{"GET", "/v1/meshes/g2/polygons", ``},
	{"POST", "/v1/meshes/g2/route", `{"src":{"x":1,"y":4},"dst":{"x":10,"y":4}}`},
	{"POST", "/v1/meshes/g2/route", `{"src":{"x":1,"y":4},"dst":{"x":10,"y":4}}`},
	{"POST", "/v1/meshes/g2/route", `{"pairs":[{"src":{"x":1,"y":1},"dst":{"x":10,"y":10}},{"src":{"x":5,"y":8},"dst":{"x":5,"y":1}},{"src":{"x":5,"y":4},"dst":{"x":0,"y":0}},{"src":{"x":0,"y":0},"dst":{"x":40,"y":0}}]}`},
	{"GET", "/v1/meshes/g2/stats", ``},

	// 3-D: a diagonal fault chain plus a duplicate add.
	{"POST", "/v1/meshes/g3/events", `[{"op":"add","x":2,"y":2,"z":2},{"op":"add","x":3,"y":3,"z":3},{"op":"add","x":2,"y":2,"z":2}]`},
	{"GET", "/v1/meshes/g3/status?x=2&y=2&z=2", ``},
	{"GET", "/v1/meshes/g3/status?x=3&y=2&z=2", ``},
	{"GET", "/v1/meshes/g3/status?x=0&y=0&z=0", ``},
	{"GET", "/v1/meshes/g3/polygons", ``},
	{"GET", "/v1/meshes/g3/stats", ``},
	{"GET", "/v1/meshes", ``},

	// Error envelopes.
	{"GET", "/v1/meshes/nope/stats", ``},
	{"POST", "/v1/meshes/nope/events", `[]`},
	{"GET", "/v1/meshes/g2/nope", ``},
	{"GET", "/v1/meshes/g3/nope", ``},
	{"GET", "/v1/meshes/g2/events", ``},
	{"GET", "/v1/meshes/g3/events", ``},
	{"GET", "/v1/meshes/g2/route", ``},
	{"POST", "/v1/meshes/g2", ``},
	{"DELETE", "/v1/meshes", ``},
	{"GET", "/v1/meshes/g2/status?x=nope&y=1", ``},
	{"GET", "/v1/meshes/g2/status?x=1", ``},
	{"GET", "/v1/meshes/g2/status?x=12&y=0", ``},
	{"GET", "/v1/meshes/g3/status?x=1&y=1", ``},
	{"GET", "/v1/meshes/g3/status?x=1&y=1&z=nope", ``},
	{"GET", "/v1/meshes/g3/status?x=1&y=1&z=6", ``},
	{"POST", "/v1/meshes/g2/events", `[{"op":"add","x":12,"y":0}]`},
	{"POST", "/v1/meshes/g2/events", `[{"op":"add","x":1,"y":1,"z":1}]`},
	{"POST", "/v1/meshes/g3/events", `[{"op":"add","x":1,"y":1}]`},
	{"POST", "/v1/meshes/g3/events", `[{"op":"add","x":1,"y":1,"z":6}]`},
	{"POST", "/v1/meshes/g3/route", `{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`},
	{"POST", "/v1/meshes/g2/route", `{"src":{"x":5,"y":4},"dst":{"x":0,"y":0}}`},
	{"POST", "/v1/meshes/g2/route", `{"src":{"x":0,"y":0}}`},
	{"POST", "/v1/meshes", `{"name":"g2","width":4,"height":4}`},
	{"POST", "/v1/meshes", `{"name":"big","width":2048,"height":2048,"depth":2048}`},
	{"GET", "/v1/nope", ``},
	{"GET", "/v1", ``},

	{"DELETE", "/v1/meshes/g3", ``},
	{"GET", "/v1/meshes/g3/stats", ``},
	{"GET", "/v1/meshes", ``},

	// Read-only endpoints refuse every method but GET and HEAD.
	{"POST", "/v1/meshes/g2/polygons", `{}`},
	{"DELETE", "/v1/meshes/g2/status?x=1&y=1", ``},
	{"PUT", "/v1/meshes/g2/stats", ``},
	{"POST", "/healthz", ``},
}

// goldenTranscript runs goldenScript through the full handler stack and
// renders each exchange as the request line and body, then the status
// code, content type and exact reply body.
func goldenTranscript(t *testing.T) string {
	t.Helper()
	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	h := newHandler(mgr, nil)
	var b strings.Builder
	for _, step := range goldenScript {
		req := httptest.NewRequest(step.method, step.path, strings.NewReader(step.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&b, "%s %s", step.method, step.path)
		if step.body != "" {
			fmt.Fprintf(&b, " %s", step.body)
		}
		fmt.Fprintf(&b, "\n%d %s\n%s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	return b.String()
}

// TestV1Golden pins the exact status codes and body bytes of the /v1
// surface for both mesh dimensionalities against testdata/v1_golden.txt.
// Any change to a reply shape, error message or status mapping shows up
// here as a diff.
func TestV1Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/v1_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenTranscript(t)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("transcript differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	t.Fatal("transcript differs")
}
