package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/wal"
)

// shardOps are the calls mfpd's handlers make on one shard, bound to a
// concrete 2-D or 3-D shard.
type shardOps[C any, T kernel.Topology[C]] struct {
	apply   func([]kernel.Event[C]) error
	read    func() (*kernel.Snapshot[C, T], error)
	planner func() error
}

// kit binds the layer calls of one dimensionality, so the replay below is
// written once.
type kit[C any, T kernel.Topology[C]] struct {
	mesh   T
	meta   wal.Meta
	coord  func([3]int) C
	decode func(io.Reader) ([]kernel.Event[C], error)
	newEng func(T) (*kernel.Engine[C, T], error)
	create func(*shard.Manager, string) (shardOps[C, T], error)
	// encode builds the polygons reply body exactly as mfpd does.
	encode func(*kernel.Snapshot[C, T], uint64) ([]byte, error)
	// plan builds a routing planner; nil where there is no routing plane.
	plan func(*kernel.Snapshot[C, T]) *routing.Planner
}

type xy struct {
	X int `json:"x"`
	Y int `json:"y"`
}

type xyz struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z"`
}

type polygonsReply[P any] struct {
	Version  uint64 `json:"version"`
	Polygons []struct {
		Faults  []P `json:"faults"`
		Polygon []P `json:"polygon"`
	} `json:"polygons"`
}

// encodePolygons walks every component and polygon with Set.Each and
// encodes the reply shape mfpd serves.
func encodePolygons[C any, T kernel.Topology[C], P any](snap *kernel.Snapshot[C, T], version uint64, conv func(C) P) ([]byte, error) {
	nodes := func(s *kernel.Set[C, T]) []P {
		out := make([]P, 0, s.Len())
		s.Each(func(c C) { out = append(out, conv(c)) })
		return out
	}
	rep := polygonsReply[P]{Version: version}
	rep.Polygons = make([]struct {
		Faults  []P `json:"faults"`
		Polygon []P `json:"polygon"`
	}, len(snap.Polygons()))
	for i, p := range snap.Polygons() {
		rep.Polygons[i].Faults = nodes(snap.Components()[i])
		rep.Polygons[i].Polygon = nodes(p)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rep)
	return buf.Bytes(), err
}

func kit2(wl *workload) kit[grid.Coord, grid.Mesh] {
	m := grid.New(wl.W, wl.H)
	return kit[grid.Coord, grid.Mesh]{
		mesh:   m,
		meta:   wal.Meta{Width: wl.W, Height: wl.H},
		coord:  func(c [3]int) grid.Coord { return grid.XY(c[0], c[1]) },
		decode: engine.DecodeEvents,
		newEng: engine.New,
		create: func(mgr *shard.Manager, name string) (shardOps[grid.Coord, grid.Mesh], error) {
			sh, err := mgr.Create(name, m)
			if err != nil {
				return shardOps[grid.Coord, grid.Mesh]{}, err
			}
			return shardOps[grid.Coord, grid.Mesh]{
				apply: func(ev []engine.Event) error { _, err := sh.Apply(ev); return err },
				read: func() (*engine.Snapshot, error) {
					v, err := sh.Read()
					return v.Snapshot, err
				},
				planner: func() error { _, _, _, err := sh.Planner(); return err },
			}, nil
		},
		encode: func(s *engine.Snapshot, v uint64) ([]byte, error) {
			return encodePolygons(s, v, func(c grid.Coord) xy { return xy{c.X, c.Y} })
		},
		plan: routing.NewPlanner,
	}
}

func kit3(wl *workload) kit[grid3.Coord, grid3.Mesh] {
	m := grid3.New(wl.W, wl.H, wl.D)
	return kit[grid3.Coord, grid3.Mesh]{
		mesh:   m,
		meta:   wal.Meta{Width: wl.W, Height: wl.H, Depth: wl.D},
		coord:  func(c [3]int) grid3.Coord { return grid3.XYZ(c[0], c[1], c[2]) },
		decode: engine3.DecodeEvents,
		newEng: engine3.New,
		create: func(mgr *shard.Manager, name string) (shardOps[grid3.Coord, grid3.Mesh], error) {
			sh, err := mgr.Create3(name, m)
			if err != nil {
				return shardOps[grid3.Coord, grid3.Mesh]{}, err
			}
			return shardOps[grid3.Coord, grid3.Mesh]{
				apply: func(ev []engine3.Event) error { _, err := sh.Apply(ev); return err },
				read: func() (*engine3.Snapshot, error) {
					v, err := sh.Read()
					return v.Snapshot, err
				},
				planner: func() error { _, _, _, err := sh.Planner(); return err },
			}, nil
		},
		encode: func(s *engine3.Snapshot, v uint64) ([]byte, error) {
			return encodePolygons(s, v, func(c grid3.Coord) xyz { return xyz{c.X, c.Y, c.Z} })
		},
	}
}

// layerCosts are the replay's direct measurements that are not span
// durations.
type layerCosts struct {
	recoverMs     float64
	rebuildMs     float64
	heapPerComp   float64
	events        int
	applyPerEvent []float64 // engine.Apply seconds per event, one per batch
}

// replayLayers replays reqs in-process through the layers mfpd's handlers
// call, each request under one root span with one child span per layer
// call, in handler order. Standalone WAL and engine instances time those
// layers alone; the shard runs them together as mfpd does.
func replayLayers[C any, T kernel.Topology[C]](k kit[C, T], b *bench, reqs []request, rec *Recorder, idBase int64) (*layerCosts, error) {
	dir := filepath.Join(b.cfg.work, "layers")
	costs := &layerCosts{}

	// wal.Open on a copy of the prepared mesh directory: recovery alone.
	var recov []float64
	for i := 0; i < setupRuns; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(filepath.Join(b.prep, b.cfg.wl.Name), cp); err != nil {
			return nil, err
		}
		start := time.Now()
		log, _, err := wal.Open[C](cp)
		if err != nil {
			return nil, err
		}
		recov = append(recov, time.Since(start).Seconds())
		if err := log.Close(); err != nil {
			return nil, err
		}
	}
	costs.recoverMs = ms(median(recov))

	prepEvents := make([]kernel.Event[C], len(b.prepSet))
	for i, c := range b.prepSet {
		prepEvents[i] = kernel.Event[C]{Op: kernel.Add, Node: k.coord(c)}
	}
	// engine rebuild: New + Apply of the recovered fault set, and the heap
	// the resident engine holds per component.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	eng, err := k.newEng(k.mesh)
	if err != nil {
		return nil, err
	}
	if _, _, err := eng.Apply(prepEvents); err != nil {
		return nil, err
	}
	costs.rebuildMs = ms(time.Since(start).Seconds())
	runtime.GC()
	runtime.ReadMemStats(&after)
	costs.heapPerComp = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(len(eng.Snapshot().Polygons())))

	mgr := shard.NewManager(shard.Config{DataDir: filepath.Join(dir, "shard"), CompactBytes: compactBytes})
	defer mgr.Close()
	ops, err := k.create(mgr, b.cfg.wl.Name)
	if err != nil {
		return nil, err
	}
	if err := ops.apply(prepEvents); err != nil {
		return nil, err
	}
	log, err := wal.Create[C](filepath.Join(dir, "wal"), k.meta)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	walVersion := uint64(len(prepEvents))

	var planner *routing.Planner
	var plannerSnap *kernel.Snapshot[C, T]
	ensurePlanner := func(id, root int64) {
		if snap := eng.Snapshot(); snap != plannerSnap {
			s := rec.Begin(id, root, "routing.planner_build")
			planner, plannerSnap = k.plan(snap), snap
			rec.End(s)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	for i := range reqs {
		r := &reqs[i]
		id := idBase + int64(i) + 1
		root := rec.Begin(id, 0, "replay."+r.Op.String())
		switch r.Op {
		case opEvents:
			s := rec.Begin(id, root, "mfpd.decode")
			evs, err := k.decode(bytes.NewReader(r.Body))
			rec.End(s)
			if err != nil {
				return nil, err
			}
			costs.events += len(evs)
			s = rec.Begin(id, root, "shard.apply")
			err = ops.apply(evs)
			rec.End(s)
			if err != nil {
				return nil, err
			}
			walVersion += uint64(len(evs))
			s = rec.Begin(id, root, "wal.append")
			err = log.Append(walVersion, evs)
			rec.End(s)
			if err != nil {
				return nil, err
			}
			s = rec.Begin(id, root, "engine.apply")
			t0 := time.Now()
			_, _, err = eng.Apply(evs)
			costs.applyPerEvent = append(costs.applyPerEvent, time.Since(t0).Seconds()/float64(len(evs)))
			rec.End(s)
			if err != nil {
				return nil, err
			}
		case opStatus:
			s := rec.Begin(id, root, "shard.read")
			snap, err := ops.read()
			if err == nil {
				_ = snap.Class(k.coord(r.Node))
			}
			rec.End(s)
			if err != nil {
				return nil, err
			}
		case opPolygons:
			s := rec.Begin(id, root, "shard.read")
			snap, err := ops.read()
			rec.End(s)
			if err != nil {
				return nil, err
			}
			s = rec.Begin(id, root, "mfpd.polygons_encode")
			_, err = k.encode(snap, walVersion)
			rec.End(s)
			if err != nil {
				return nil, err
			}
		case opRoute, opBatch:
			if k.plan == nil {
				return nil, fmt.Errorf("%s request on a mesh without routing", r.Op)
			}
			s := rec.Begin(id, root, "shard.planner")
			err := ops.planner()
			rec.End(s)
			if err != nil {
				return nil, err
			}
			ensurePlanner(id, root)
			if r.Op == opRoute {
				p := r.Pairs[0]
				s = rec.Begin(id, root, "routing.route")
				_, _ = planner.Route(grid.XY(p[0], p[1]), grid.XY(p[2], p[3])) // outcomes are checked over HTTP
				rec.End(s)
				break
			}
			queries := make([]routing.Query, len(r.Pairs))
			for j, p := range r.Pairs {
				queries[j] = routing.Query{Src: grid.XY(p[0], p[1]), Dst: grid.XY(p[2], p[3])}
			}
			s = rec.Begin(id, root, "routing.route_all")
			planner.RouteAll(queries, min(len(queries), workers))
			rec.End(s)
		}
		rec.End(root)
	}
	return costs, nil
}

// scrape reads mfpd's /metrics.
func scrape(ctx context.Context, d *daemon) (Exposition, error) {
	st, body, err := do(ctx, newClient(), d.base, "GET", "/metrics", nil)
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: HTTP %d %v", st, err)
	}
	return parseProm(bytes.NewReader(body))
}

// healthzRTT times n sequential /healthz round trips over loopback.
func healthzRTT(ctx context.Context, d *daemon, n int) ([]float64, error) {
	c := newClient()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		st, _, err := do(ctx, c, d.base, "GET", "/healthz", nil)
		if err != nil || st != http.StatusOK {
			return nil, fmt.Errorf("healthz: HTTP %d %v", st, err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	sort.Float64s(out)
	return out, nil
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// allLatencies returns every issued request's latency from due time,
// sorted.
func allLatencies(p *phase) []float64 {
	var out []float64
	for o := op(0); o < numOps; o++ {
		out = append(out, p.latencies(o)...)
	}
	sort.Float64s(out)
	return out
}

// traced is the separate traced run. It repeats the open-loop phase twice
// from the same prepared state, untraced and then with one client span per
// request while scraping /metrics around it, replays the same request
// stream in-process through each layer, writes every span to a file and
// reports the per-layer metrics.
func traced(ctx context.Context, cfg *config) (*result, error) {
	b, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	wl := cfg.wl
	open := b.gen.openLoop(time.Duration(cfg.seconds) * time.Second)
	openEnd := b.gen.FaultSet()

	d, _, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	plain := runOpenLoop(ctx, d.base, b.conns(), open, nil)
	b.tally(plain, "untraced open loop")
	if err := d.stop(); err != nil {
		return nil, err
	}

	d, _, err = b.launch(ctx, setupRuns)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	rec := NewRecorder()
	before, err := scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	tp := runOpenLoop(ctx, d.base, b.conns(), open, rec)
	b.tally(tp, "traced open loop")
	after, err := scrape(ctx, d)
	if err != nil {
		return nil, err
	}
	rtt, err := healthzRTT(ctx, d, 200)
	if err != nil {
		return nil, err
	}
	comps, err := b.check(ctx, d, openEnd)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	var costs *layerCosts
	if wl.is3D() {
		costs, err = replayLayers(kit3(wl), b, open, rec, int64(len(open)))
	} else {
		costs, err = replayLayers(kit2(wl), b, open, rec, int64(len(open)))
	}
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	spans := rec.Spans()
	spanFile := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.Name, cfg.seed))
	if err := WriteSpans(spanFile, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "e2ebench: wrote %d spans to %s\n", len(spans), spanFile)

	m := layerMetrics(byName(spans), after.Delta(before), costs)
	lags := append([]float64(nil), tp.lags...)
	sort.Float64s(lags)
	m["loadgen.lag_p99_ms"] = metric{ms(quantile(lags, .99)), "ms"}
	m["mfpd.healthz_rtt_p50_ms"] = metric{ms(quantile(rtt, .5)), "ms"}
	m["trace.overhead_p50_ms"] = metric{ms(quantile(allLatencies(tp), .5) - quantile(allLatencies(plain), .5)), "ms"}
	// The end-to-end figures that are not steady enough, or not issued on
	// every workload, to gate on: measured with tracing off.
	for _, t := range []struct {
		name string
		o    op
		q    float64
	}{
		{"e2e.events_p90_ms", opEvents, .9},
		{"e2e.events_p99_ms", opEvents, .99},
		{"e2e.status_p90_ms", opStatus, .9},
		{"e2e.status_p99_ms", opStatus, .99},
		{"e2e.polygons_p90_ms", opPolygons, .9},
		{"e2e.route_p50_ms", opRoute, .5},
		{"e2e.route_p99_ms", opRoute, .99},
		{"e2e.route_batch_p50_ms", opBatch, .5},
		{"e2e.route_batch_p90_ms", opBatch, .9},
	} {
		m[t.name] = metric{ms(quantile(plain.latencies(t.o), t.q)), "ms"}
	}
	m["gen.faults_start"] = metric{float64(b.prepFaults), "count"}
	m["gen.faults_end"] = metric{float64(len(openEnd)), "count"}
	m["gen.components_start"] = metric{float64(b.prepComps), "count"}
	m["gen.components_end"] = metric{float64(comps), "count"}
	report(os.Stderr, b, plain, nil, m, comps, len(openEnd))
	return b.result(m), nil
}

// layerMetrics derives the per-layer metrics from span durations (seconds
// by span name), the /metrics delta over the traced HTTP phase, and the
// replay's direct costs. A layer that did no work on a workload reports 0.
func layerMetrics(spans map[string][]float64, dm Exposition, c *layerCosts) map[string]metric {
	q := func(name string, p float64) float64 {
		s := spans[name]
		sort.Float64s(s)
		return quantile(s, p)
	}
	perEvent := append([]float64(nil), c.applyPerEvent...)
	sort.Float64s(perEvent)
	serverMean := func(sub string) float64 {
		route := "/v1/meshes/{name}/" + sub
		return ms(ratio(dm.Get("mfpd_http_request_seconds_sum", "route", route), dm.Get("mfpd_http_request_seconds_count", "route", route)))
	}
	batches := dm.Sum("shard_batches_total")
	applied := dm.Sum("engine_events_applied_total")
	closures := dm.Sum("engine_closures_total")
	routes := dm.Sum("routing_routes_total")
	return map[string]metric{
		"mfpd.server_events_mean_ms":           {serverMean("events"), "ms"},
		"mfpd.server_status_mean_ms":           {serverMean("status"), "ms"},
		"mfpd.server_route_mean_ms":            {serverMean("route"), "ms"},
		"mfpd.server_polygons_mean_ms":         {serverMean("polygons"), "ms"},
		"mfpd.decode_us_per_event":             {1e6 * ratio(total(spans["mfpd.decode"]), float64(c.events)), "us"},
		"mfpd.polygons_encode_ms":              {ms(q("mfpd.polygons_encode", .5)), "ms"},
		"shard.apply_p50_us":                   {1e6 * q("shard.apply", .5), "us"},
		"shard.apply_p99_us":                   {1e6 * q("shard.apply", .99), "us"},
		"shard.read_p50_us":                    {1e6 * q("shard.read", .5), "us"},
		"shard.planner_p50_us":                 {1e6 * q("shard.planner", .5), "us"},
		"shard.coalesce_ratio":                 {ratio(dm.Sum("shard_requests_total"), batches), "ratio"},
		"shard.batch_events_mean":              {ratio(dm.Sum("shard_events_received_total"), batches), "count"},
		"shard.planner_hit_ratio":              {ratio(dm.Sum("shard_planner_cache_hits_total"), dm.Sum("shard_route_queries_total")), "ratio"},
		"wal.append_p50_us":                    {1e6 * q("wal.append", .5), "us"},
		"wal.append_p99_us":                    {1e6 * q("wal.append", .99), "us"},
		"wal.bytes_per_event":                  {ratio(dm.Sum("wal_bytes_total"), dm.Sum("shard_events_applied_total")), "B"},
		"wal.fsyncs_per_batch":                 {ratio(dm.Sum("wal_fsyncs_total"), dm.Sum("wal_appends_total")), "ratio"},
		"wal.compactions":                      {dm.Sum("wal_compact_seconds_count"), "count"},
		"wal.compact_mean_ms":                  {ms(ratio(dm.Sum("wal_compact_seconds_sum"), dm.Sum("wal_compact_seconds_count"))), "ms"},
		"wal.recover_ms":                       {c.recoverMs, "ms"},
		"engine.apply_p50_us_per_event":        {1e6 * quantile(perEvent, .5), "us"},
		"engine.apply_p99_us_per_event":        {1e6 * quantile(perEvent, .99), "us"},
		"engine.closures_per_event":            {ratio(closures, applied), "ratio"},
		"engine.closure_passes_per_closure":    {ratio(dm.Sum("engine_closure_passes_total"), closures), "ratio"},
		"engine.components_touched_per_event":  {ratio(dm.Sum("engine_components_touched_total"), applied), "ratio"},
		"engine.unsafe_delta_rows_per_event":   {ratio(dm.Sum("engine_unsafe_delta_rows_total"), applied), "ratio"},
		"engine.unsafe_rebuild_rows_per_event": {ratio(dm.Sum("engine_unsafe_rebuild_rows_total"), applied), "ratio"},
		"engine.rebuild_ms":                    {c.rebuildMs, "ms"},
		"engine.heap_bytes_per_component":      {c.heapPerComp, "B"},
		"routing.planner_build_p50_ms":         {ms(q("routing.planner_build", .5)), "ms"},
		"routing.route_p50_us":                 {1e6 * q("routing.route", .5), "us"},
		"routing.route_all_p50_ms":             {ms(q("routing.route_all", .5)), "ms"},
		"routing.ok_ratio":                     {ratio(dm.Get("routing_routes_total", "outcome", "ok"), routes), "ratio"},
	}
}
