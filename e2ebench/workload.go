package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/mfp3d"
)

// op is one kind of /v1 request the load generator issues.
type op int

const (
	opEvents op = iota
	opStatus
	opPolygons
	opRoute
	opBatch
	numOps
)

var opNames = [numOps]string{"events", "status", "polygons", "route", "route_batch"}

func (o op) String() string { return opNames[o] }

// workload is one traffic mix over one mesh. The benchmark derives every
// input from the workload and the seed; mfpd only sees the requests.
type workload struct {
	Name       string
	W, H, D    int // D == 0 for a 2-D mesh
	BaseFaults int // clustered faults loaded before the run, never cleared
	Margin     int // faults, churn and route endpoints stay this far off the border
	// Churn is the target number of generator-added faults; adds and
	// clears keep the added population within [0, 2*Churn].
	Churn       int
	PrepBatches int // churn batches applied in the prep phase, behind the compaction
	// Rates is the open-loop offered rate of each op in requests/s; the
	// closed-loop phase draws the same mix in proportion to it.
	Rates      [numOps]float64
	BatchPairs int // pairs per batched route request
}

func (w *workload) is3D() bool { return w.D > 0 }

func (w *workload) size() int {
	if w.is3D() {
		return w.W * w.H * w.D
	}
	return w.W * w.H
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json lists the
// same names. Offered rates sit at about a third (churn2d, churn3d) and a
// seventh (route2d) of each mix's closed-loop capacity on a 2-CPU machine:
// at half capacity the queueing behind polygons GETs, event batches and
// planner builds spread the latency percentiles wider than their bounds.
var workloads = map[string]*workload{
	"churn2d": {
		Name: "churn2d", W: 512, H: 512, BaseFaults: 1300, Margin: 2, Churn: 100, PrepBatches: 200,
		Rates: [numOps]float64{opEvents: 20, opStatus: 80, opPolygons: 5},
	},
	"route2d": {
		Name: "route2d", W: 256, H: 256, BaseFaults: 1300, Margin: 8, Churn: 40, PrepBatches: 200,
		Rates:      [numOps]float64{opEvents: 2, opStatus: 60, opPolygons: 5, opRoute: 250, opBatch: 12},
		BatchPairs: 64,
	},
	"churn3d": {
		Name: "churn3d", W: 64, H: 64, D: 64, BaseFaults: 2600, Margin: 1, Churn: 150, PrepBatches: 200,
		Rates: [numOps]float64{opEvents: 12, opStatus: 60, opPolygons: 5},
	},
}

// event is one generated fault event; c holds x, y and (3-D) z.
type event struct {
	add bool
	c   [3]int
}

// request is one generated HTTP request with what the benchmark expects of
// its answer.
type request struct {
	Due    time.Duration // offset from the phase start (0 in closed loop)
	Op     op
	Method string
	Path   string
	Body   []byte
	Node   [3]int   // status
	Pairs  [][4]int // route and route_batch: src x, y, dst x, y
	Events []event  // events
	// FaultsAfter is the fault count after an events batch: batches are
	// sent in order on one connection, so it is exact.
	FaultsAfter int
}

// generator produces a stationary request stream: clustered base faults
// that are never cleared, churn that only adds nodes next to base faults
// and only clears nodes it added itself, so the fault and component counts
// stay in a band at any run length.
type generator struct {
	wl     *workload
	rng    *rand.Rand
	faulty []bool
	base   []int
	added  []int
	pos    map[int]int // added node -> index in added
	count  int
	batch  map[int]bool
	buf    bytes.Buffer
}

// layoutSeed fixes each workload's base fault layout: the run's seed
// varies the traffic (churn, query targets and arrival times), not the
// mesh's fault population, whose per-layout cost differences would
// otherwise dominate the run-to-run spread.
const layoutSeed = 1

func newGenerator(wl *workload, seed int64) *generator {
	g := &generator{
		wl:     wl,
		rng:    rand.New(rand.NewSource(seed)),
		faulty: make([]bool, wl.size()),
		pos:    make(map[int]int),
		batch:  make(map[int]bool),
	}
	if wl.is3D() {
		m := grid3.New(wl.W-2*wl.Margin, wl.H-2*wl.Margin, wl.D-2*wl.Margin)
		mfp3d.ClusteredFaults(m, wl.BaseFaults, layoutSeed).Each(func(c grid3.Coord) {
			g.base = append(g.base, g.index([3]int{c.X + wl.Margin, c.Y + wl.Margin, c.Z + wl.Margin}))
		})
	} else {
		fault.InjectWithMargin(grid.New(wl.W, wl.H), fault.Clustered, layoutSeed, wl.BaseFaults, wl.Margin).Each(func(c grid.Coord) {
			g.base = append(g.base, g.index([3]int{c.X, c.Y, 0}))
		})
	}
	sort.Ints(g.base)
	for _, i := range g.base {
		g.faulty[i] = true
	}
	g.count = len(g.base)
	return g
}

func (g *generator) index(c [3]int) int { return c[0] + g.wl.W*(c[1]+g.wl.H*c[2]) }

func (g *generator) coord(i int) [3]int {
	w, h := g.wl.W, g.wl.H
	return [3]int{i % w, (i / w) % h, i / (w * h)}
}

// inner reports whether c lies inside the mesh minus the margin.
func (g *generator) inner(c [3]int) bool {
	wl := g.wl
	m := wl.Margin
	if c[0] < m || c[0] >= wl.W-m || c[1] < m || c[1] >= wl.H-m {
		return false
	}
	if wl.is3D() {
		return c[2] >= m && c[2] < wl.D-m
	}
	return c[2] == 0
}

// offset returns a uniformly random nonzero neighbour offset within r on
// every axis of the mesh.
func (g *generator) offset(r int) [3]int {
	for {
		d := [3]int{g.rng.Intn(2*r+1) - r, g.rng.Intn(2*r+1) - r, 0}
		if g.wl.is3D() {
			d[2] = g.rng.Intn(2*r+1) - r
		}
		if d != [3]int{} {
			return d
		}
	}
}

func add3(a, b [3]int) [3]int { return [3]int{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

// FaultSet returns every currently faulty node.
func (g *generator) FaultSet() [][3]int {
	out := make([][3]int, 0, g.count)
	for i, f := range g.faulty {
		if f {
			out = append(out, g.coord(i))
		}
	}
	return out
}

// Faults returns the current fault count.
func (g *generator) Faults() int { return g.count }

// baseEvents returns the bulk load of every base fault.
func (g *generator) baseEvents() []event {
	out := make([]event, len(g.base))
	for i, b := range g.base {
		out[i] = event{add: true, c: g.coord(b)}
	}
	return out
}

// nextBatch generates 1-8 events, each changing state and no node twice,
// and applies them to the generator's fault set.
func (g *generator) nextBatch() []event {
	k := 1 + g.rng.Intn(8)
	clear(g.batch)
	out := make([]event, 0, k)
	for len(out) < k {
		n := len(g.added)
		addP := 0.65
		if n >= g.wl.Churn {
			addP = 0.35
		}
		doAdd := n == 0 || (n < 2*g.wl.Churn && g.rng.Float64() < addP)
		var e event
		ok := false
		if doAdd {
			for try := 0; try < 16 && !ok; try++ {
				c := add3(g.coord(g.base[g.rng.Intn(len(g.base))]), g.offset(1))
				i := g.index(c)
				if g.inner(c) && !g.faulty[i] && !g.batch[i] {
					e, ok = event{add: true, c: c}, true
				}
			}
		} else {
			for try := 0; try < 16 && !ok; try++ {
				i := g.added[g.rng.Intn(n)]
				if !g.batch[i] {
					e, ok = event{add: false, c: g.coord(i)}, true
				}
			}
		}
		if !ok {
			continue
		}
		g.apply(e)
		out = append(out, e)
	}
	return out
}

func (g *generator) apply(e event) {
	i := g.index(e.c)
	g.batch[i] = true
	if e.add {
		g.faulty[i] = true
		g.pos[i] = len(g.added)
		g.added = append(g.added, i)
		g.count++
		return
	}
	g.faulty[i] = false
	p := g.pos[i]
	last := g.added[len(g.added)-1]
	g.added[p] = last
	g.pos[last] = p
	g.added = g.added[:len(g.added)-1]
	delete(g.pos, i)
	g.count--
}

// eventsBody encodes events in the wire format mfpd decodes on its fast
// path: [{"op":"add","x":3,"y":4},...], with "z" on a 3-D mesh.
func (g *generator) eventsBody(evs []event) []byte {
	g.buf.Reset()
	g.buf.WriteByte('[')
	for i, e := range evs {
		if i > 0 {
			g.buf.WriteByte(',')
		}
		if e.add {
			g.buf.WriteString(`{"op":"add","x":`)
		} else {
			g.buf.WriteString(`{"op":"clear","x":`)
		}
		g.buf.WriteString(strconv.Itoa(e.c[0]))
		g.buf.WriteString(`,"y":`)
		g.buf.WriteString(strconv.Itoa(e.c[1]))
		if g.wl.is3D() {
			g.buf.WriteString(`,"z":`)
			g.buf.WriteString(strconv.Itoa(e.c[2]))
		}
		g.buf.WriteByte('}')
	}
	g.buf.WriteByte(']')
	return append([]byte(nil), g.buf.Bytes()...)
}

func (g *generator) meshPath(sub string) string { return "/v1/meshes/" + g.wl.Name + "/" + sub }

// eventsRequest wraps a batch of already-applied events.
func (g *generator) eventsRequest(evs []event) request {
	return request{Op: opEvents, Method: "POST", Path: g.meshPath("events"), Body: g.eventsBody(evs), Events: evs, FaultsAfter: g.count}
}

// randomNode returns a status target: half near a base fault, where the
// classes are interesting, half uniform over the mesh.
func (g *generator) randomNode() [3]int {
	wl := g.wl
	if g.rng.Intn(2) == 0 {
		c := add3(g.coord(g.base[g.rng.Intn(len(g.base))]), g.offset(3))
		c[0] = min(max(c[0], 0), wl.W-1)
		c[1] = min(max(c[1], 0), wl.H-1)
		if wl.is3D() {
			c[2] = min(max(c[2], 0), wl.D-1)
		}
		return c
	}
	c := [3]int{g.rng.Intn(wl.W), g.rng.Intn(wl.H), 0}
	if wl.is3D() {
		c[2] = g.rng.Intn(wl.D)
	}
	return c
}

func (g *generator) randomPair() [4]int {
	wl := g.wl
	span := func(n int) int { return wl.Margin + g.rng.Intn(n-2*wl.Margin) }
	return [4]int{span(wl.W), span(wl.H), span(wl.W), span(wl.H)}
}

func statusPath(g *generator, c [3]int) string {
	p := g.meshPath("status") + "?x=" + strconv.Itoa(c[0]) + "&y=" + strconv.Itoa(c[1])
	if g.wl.is3D() {
		p += "&z=" + strconv.Itoa(c[2])
	}
	return p
}

func pairJSON(b *bytes.Buffer, p [4]int) {
	fmt.Fprintf(b, `{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, p[0], p[1], p[2], p[3])
}

// next generates the content of one request of kind o, advancing the
// generator's fault set for event batches.
func (g *generator) next(o op) request {
	switch o {
	case opEvents:
		return g.eventsRequest(g.nextBatch())
	case opStatus:
		c := g.randomNode()
		return request{Op: o, Method: "GET", Path: statusPath(g, c), Node: c}
	case opPolygons:
		return request{Op: o, Method: "GET", Path: g.meshPath("polygons")}
	case opRoute:
		p := g.randomPair()
		var b bytes.Buffer
		pairJSON(&b, p)
		return request{Op: o, Method: "POST", Path: g.meshPath("route"), Body: b.Bytes(), Pairs: [][4]int{p}}
	case opBatch:
		var b bytes.Buffer
		pairs := make([][4]int, g.wl.BatchPairs)
		b.WriteString(`{"pairs":[`)
		for i := range pairs {
			if i > 0 {
				b.WriteByte(',')
			}
			pairs[i] = g.randomPair()
			fmt.Fprintf(&b, `{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, pairs[i][0], pairs[i][1], pairs[i][2], pairs[i][3])
		}
		b.WriteString(`]}`)
		return request{Op: o, Method: "POST", Path: g.meshPath("route"), Body: b.Bytes(), Pairs: pairs}
	}
	panic(fmt.Sprintf("unknown op %d", o))
}

// openLoop generates dur worth of Poisson arrivals per op at the
// workload's offered rates, merged in due order, with their contents.
func (g *generator) openLoop(dur time.Duration) []request {
	type arrival struct {
		due time.Duration
		op  op
	}
	var arr []arrival
	for o := op(0); o < numOps; o++ {
		rate := g.wl.Rates[o]
		if rate <= 0 {
			continue
		}
		for t := 0.0; ; {
			t += g.rng.ExpFloat64() / rate
			due := time.Duration(t * float64(time.Second))
			if due >= dur {
				break
			}
			arr = append(arr, arrival{due, o})
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].due < arr[j].due })
	out := make([]request, len(arr))
	for i, a := range arr {
		out[i] = g.next(a.op)
		out[i].Due = a.due
	}
	return out
}

// closedLoop generates n requests of the workload's mix, interleaved in
// exact proportion to its offered rates by smooth weighted round robin: every
// run's capacity phase serves the same pattern of ops, so its throughput does
// not move with how a seed happens to cluster the expensive ones. The seed
// still drives each request's contents.
func (g *generator) closedLoop(n int) []request {
	total := 0.0
	for _, r := range g.wl.Rates {
		total += r
	}
	var credit [numOps]float64
	out := make([]request, n)
	for i := range out {
		best := op(-1)
		for o := op(0); o < numOps; o++ {
			if g.wl.Rates[o] <= 0 {
				continue
			}
			credit[o] += g.wl.Rates[o]
			if best < 0 || credit[o] > credit[best] {
				best = o
			}
		}
		credit[best] -= total
		out[i] = g.next(best)
	}
	return out
}
