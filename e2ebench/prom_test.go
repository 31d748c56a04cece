package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// testdata/mfpd_metrics.txt is a /metrics exposition captured from mfpd
// after it served two event batches (one 2-D, one 3-D), a status read, a
// polygons read and two single-pair routes (one ok, one blocked).
func TestParseCapturedExposition(t *testing.T) {
	f, err := os.Open("testdata/mfpd_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	counters := []struct {
		name   string
		labels []string
		want   float64
	}{
		{"shard_requests_total", nil, 2},
		{"wal_appends_total", nil, 2},
		{"engine_events_applied_total", []string{"dim", "2"}, 3},
		{"engine_events_applied_total", []string{"dim", "3"}, 1},
		{"routing_routes_total", []string{"outcome", "ok"}, 1},
		{"routing_routes_total", []string{"outcome", "blocked_endpoint"}, 1},
		{"mfpd_http_request_seconds_count", []string{"route", "/v1/meshes/{name}/events"}, 2},
		{"mfpd_http_request_seconds_count", []string{"route", "/v1/meshes/{name}/route"}, 2},
		{"wal_compact_seconds_count", nil, 0},
	}
	for _, c := range counters {
		if got := e.Get(c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.labels, got, c.want)
		}
	}
	if got := e.Sum("engine_events_applied_total"); got != 4 {
		t.Errorf("sum over dim = %v, want 4", got)
	}
	if got := e.Sum("routing_routes_total"); got != 2 {
		t.Errorf("sum over outcomes = %v, want 2", got)
	}
	sum := e.Get("mfpd_http_request_seconds_sum", "route", "/v1/meshes/{name}/events")
	if sum <= 0 || sum > 1 {
		t.Errorf("events latency sum %v out of range", sum)
	}
	// The +Inf bucket of a histogram equals its count.
	inf := e.Get("mfpd_http_request_seconds_bucket", "le", "+Inf", "route", "/v1/meshes/{name}/events")
	if inf != 2 {
		t.Errorf("+Inf bucket = %v, want 2", inf)
	}
	// A prefix of another family's name must not leak into Sum.
	if got := e.Sum("wal_appends"); got != 0 {
		t.Errorf("Sum matched a name prefix: %v", got)
	}
}

func TestParseLabelsEscapesAndDelta(t *testing.T) {
	text := `# HELP x_total A counter.
# TYPE x_total counter
x_total{b="2",a="q\"uote\\d"} 5
x_total{a="plain"} 1.5e3
y 7 1700000000000

`
	before, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := before.Get("x_total", "a", `q"uote\d`, "b", "2"); got != 5 {
		t.Errorf("escaped label lookup = %v, want 5", got)
	}
	if got := before.Get("y"); got != 7 {
		t.Errorf("value with timestamp = %v, want 7", got)
	}
	after, err := parseProm(strings.NewReader(strings.Replace(text, "} 5", "} 12", 1)))
	if err != nil {
		t.Fatal(err)
	}
	d := after.Delta(before)
	if got := d.Get("x_total", "b", "2", "a", `q"uote\d`); got != 7 {
		t.Errorf("delta = %v, want 7", got)
	}
	if got := d.Sum("x_total"); got != 7 {
		t.Errorf("delta sum = %v, want 7", got)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"novalue\n",
		`x{a="unterminated} 1` + "\n",
		"x{a=1} 2\n",
		"x notanumber\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
	e, err := parseProm(strings.NewReader("x NaN\n"))
	if err != nil || !math.IsNaN(e.Get("x")) {
		t.Errorf("NaN sample: %v, %v", e, err)
	}
}
