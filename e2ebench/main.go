// Command e2ebench is the repository's end-to-end benchmark: it drives a
// real mfpd child process over loopback with seeded open-loop /v1 traffic,
// checks every answer against from-scratch constructions, and prints one
// JSON result line. README.md in this directory describes the workloads,
// the metrics and what each layer metric should move.
//
// Run it through run.sh from the repository root, which builds mfpd and
// this driver first:
//
//	bash e2ebench/run.sh --workload churn2d --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer metrics and writes a span file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times one run launches mfpd on the prepared data
// directory; setup_s is the median.
const setupRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	mfpd    string
	out     string // directory for run data and span files
	work    string // this run's scratch directory under out
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	name := flag.String("workload", "", "workload: churn2d, route2d or churn3d")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&cfg.seconds, "seconds", 15, "length of the open-loop phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.mfpd, "mfpd", "", "path to the mfpd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run data and span files")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.wl = workloads[*name]
	if cfg.wl == nil || cfg.mfpd == "" || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s), -mfpd, -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	cfg.work = work
	defer os.RemoveAll(work)
	// Runs on return and while a panic unwinds: no mfpd outlives the
	// benchmark (Pdeathsig covers a hard kill).
	defer killAll()

	var res *result
	if cfg.trace {
		res, err = traced(ctx, &cfg)
	} else {
		res, err = measured(ctx, &cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: incorrect answers; see the messages above")
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench is the state of one benchmark invocation against one workload.
type bench struct {
	cfg  *config
	gen  *generator
	prep string // prepared data directory; never served from directly
	// version and faults at the end of the prep phase.
	prepVersion uint64
	prepFaults  int
	prepComps   int
	prepSet     [][3]int
	attempted   int
	failed      int
	mismatches  []string
}

// prepare creates the workload's mesh on a fresh mfpd, bulk-loads the base
// faults, applies PrepBatches churn batches (the log then has a tail behind
// a compacted snapshot) and drains mfpd with SIGTERM, leaving identical
// bytes for every set-up measurement of the run.
func prepare(ctx context.Context, cfg *config) (*bench, error) {
	b := &bench{cfg: cfg, gen: newGenerator(cfg.wl, cfg.seed), prep: filepath.Join(cfg.work, "prep")}
	d, err := startDaemon(cfg.mfpd, b.prep)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	c := &conn{client: newClient(), writes: &writeState{}}
	if err := d.waitRead(ctx, c.client, "/healthz"); err != nil {
		return nil, err
	}
	wl := cfg.wl
	create := fmt.Sprintf(`{"name":%q,"width":%d,"height":%d}`, wl.Name, wl.W, wl.H)
	if wl.is3D() {
		create = fmt.Sprintf(`{"name":%q,"width":%d,"height":%d,"depth":%d}`, wl.Name, wl.W, wl.H, wl.D)
	}
	if st, body, err := do(ctx, c.client, d.base, "POST", "/v1/meshes", []byte(create)); err != nil || st != 201 {
		return nil, fmt.Errorf("create mesh: HTTP %d %s %v", st, body, err)
	}
	reqs := []request{b.gen.eventsRequest(b.gen.baseEvents())}
	for i := 0; i < wl.PrepBatches; i++ {
		reqs = append(reqs, b.gen.eventsRequest(b.gen.nextBatch()))
	}
	for i := range reqs {
		st, body, err := do(ctx, c.client, d.base, reqs[i].Method, reqs[i].Path, reqs[i].Body)
		if err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		if msg := c.verify(&reqs[i], st, body); msg != "" {
			return nil, fmt.Errorf("prep: %s", msg)
		}
		if i == len(reqs)-1 {
			var rep struct {
				Components int `json:"components"`
			}
			if err := json.Unmarshal(body, &rep); err != nil {
				return nil, fmt.Errorf("prep: %w", err)
			}
			b.prepComps = rep.Components
		}
	}
	b.prepVersion, b.prepFaults, b.prepSet = c.writes.version, b.gen.Faults(), b.gen.FaultSet()
	return b, d.stop()
}

// launch copies the prepared directory and starts mfpd on the copy; it
// returns once the mesh answers its first read, with the time that took.
func (b *bench) launch(ctx context.Context, i int) (*daemon, float64, error) {
	dir := filepath.Join(b.cfg.work, fmt.Sprintf("data-%d", i))
	if err := copyDir(b.prep, dir); err != nil {
		return nil, 0, err
	}
	client := newClient()
	start := time.Now()
	d, err := startDaemon(b.cfg.mfpd, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := d.waitRead(ctx, client, statusPath(b.gen, [3]int{})); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(start).Seconds(), nil
}

// setup launches mfpd setupRuns times on copies of the prepared directory
// and returns the last daemon, still running, and the median set-up time.
func (b *bench) setup(ctx context.Context) (*daemon, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, t, err := b.launch(ctx, i)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, t)
		if i == setupRuns-1 {
			return d, median(times), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
}

func (b *bench) conns() [2]*conn {
	w := &writeState{version: b.prepVersion}
	return [2]*conn{
		{client: newClient(), writes: w, lastVersion: b.prepVersion},
		{client: newClient(), writes: w, lastVersion: b.prepVersion},
	}
}

// tally adds a phase's requests and failures to the run's totals.
func (b *bench) tally(p *phase, label string) {
	a, f, first := p.counts()
	b.attempted += a
	b.failed += f
	if f > 0 {
		b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %d of %d requests failed; first: %s", label, f, a, first))
	}
}

// check runs the end-of-run oracle check and stats read on a quiescent
// mfpd whose fault set should be faults.
func (b *bench) check(ctx context.Context, d *daemon, faults [][3]int) (comps int, err error) {
	c := &conn{client: newClient()}
	attempted, mismatches, err := finalCheck(ctx, c, d.base, b.cfg.wl, faults, b.cfg.seed)
	if err != nil {
		return 0, fmt.Errorf("final check: %w", err)
	}
	b.attempted += attempted
	b.failed += len(mismatches)
	b.mismatches = append(b.mismatches, mismatches...)
	st, body, err := do(ctx, c.client, d.base, "GET", "/v1/meshes/"+b.cfg.wl.Name+"/stats", nil)
	if err != nil || st != 200 {
		return 0, fmt.Errorf("stats: HTTP %d %v", st, err)
	}
	var s struct {
		Components int `json:"components"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, fmt.Errorf("stats: %w", err)
	}
	return s.Components, nil
}

// replayFaults applies the event batches of the issued, acknowledged
// requests of p to the fault set start.
func replayFaults(start [][3]int, p *phase) [][3]int {
	set := make(map[[3]int]bool, len(start))
	for _, c := range start {
		set[c] = true
	}
	for i, r := range p.reqs {
		if r.Op != opEvents || !p.issued[i] || p.outs[i].err != "" {
			continue
		}
		for _, e := range r.Events {
			if e.add {
				set[e.c] = true
			} else {
				delete(set, e.c)
			}
		}
	}
	out := make([][3]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

func ms(sec float64) float64 { return sec * 1000 }

// closedSeconds is the length of the closed-loop capacity phase.
func closedSeconds(open int) time.Duration {
	return time.Duration(max(3, open*2/3)) * time.Second
}

// measured is the untraced run: prep, set-up, the open-loop phase, the
// closed-loop capacity phase and the oracle check. It reports every
// end-to-end metric.
func measured(ctx context.Context, cfg *config) (*result, error) {
	b, err := prepare(ctx, cfg)
	if err != nil {
		return nil, err
	}
	open := b.gen.openLoop(time.Duration(cfg.seconds) * time.Second)
	openEnd := b.gen.FaultSet()
	closedDur := closedSeconds(cfg.seconds)
	total := 0.0
	for _, r := range cfg.wl.Rates {
		total += r
	}
	// Enough requests for a mix twenty times its offered rate: the phase
	// ends at its deadline, not by running out.
	closed := b.gen.closedLoop(int(total * 20 * closedDur.Seconds()))

	d, setupS, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	conns := b.conns()
	op1 := runOpenLoop(ctx, d.base, conns, open, nil)
	b.tally(op1, "open loop")
	cp := runClosedLoop(ctx, d.base, conns, closed, closedDur)
	b.tally(cp, "closed loop")
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	final := replayFaults(openEnd, cp)
	comps, err := b.check(ctx, d, final)
	if err != nil {
		return nil, err
	}
	rss, err := d.hwmMB()
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// The median rate of ten equal runs of completions: a stall of the host
	// during one of them does not move it.
	throughput := median(cp.chunkRates(10))
	lat := op1.latencies
	m := map[string]metric{
		"events_p50_ms":    {ms(quantile(lat(opEvents), 0.50)), "ms"},
		"status_p50_ms":    {ms(quantile(lat(opStatus), 0.50)), "ms"},
		"polygons_p50_ms":  {ms(quantile(lat(opPolygons), 0.50)), "ms"},
		"throughput_ops_s": {throughput, "1/s"},
		"setup_s":          {setupS, "s"},
		"rss_mb":           {rss, "MiB"},
	}
	report(os.Stderr, b, op1, cp, m, comps, len(final))
	return b.result(m), nil
}

func (b *bench) result(m map[string]metric) *result {
	for _, msg := range b.mismatches {
		fmt.Fprintln(os.Stderr, "e2ebench: MISMATCH:", msg)
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// report prints the human-readable summary: every op's latency with its
// sample count, generator lag, and the population at both ends of the run.
func report(w io.Writer, b *bench, open, closed *phase, m map[string]metric, comps, faults int) {
	wl := b.cfg.wl
	fmt.Fprintf(w, "workload %s seed %d: %dx%dx%d mesh, open loop %ds", wl.Name, b.cfg.seed, wl.W, wl.H, max(wl.D, 1), b.cfg.seconds)
	if closed != nil {
		fmt.Fprintf(w, ", closed loop %.0fs", closed.end.Sub(closed.start).Seconds())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  population: faults %d -> %d, components %d -> %d\n", b.prepFaults, faults, b.prepComps, comps)
	for o := op(0); o < numOps; o++ {
		l := open.latencies(o)
		if len(l) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s offered %6.1f/s  n=%5d  p50 %8.3f ms  p90 %8.3f ms  p99 %8.3f ms\n",
			o, wl.Rates[o], len(l), ms(quantile(l, .5)), ms(quantile(l, .9)), ms(quantile(l, .99)))
	}
	lags := append([]float64(nil), open.lags...)
	sort.Float64s(lags)
	fmt.Fprintf(w, "  generator lag p50 %.3f ms, p99 %.3f ms\n", ms(quantile(lags, .5)), ms(quantile(lags, .99)))
	fmt.Fprintf(w, "  failed_frac %g (%d of %d requests)\n", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-44s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// copyDir copies a flat tree of regular files (a WAL data directory).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !de.Type().IsRegular() {
			return errors.New("copy: not a regular file: " + path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
