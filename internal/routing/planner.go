package routing

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
	"repro/internal/polygon"
	"repro/internal/pool"
)

// Planner is the prepared, immutable routing state of one mesh snapshot:
// the disabled regions, their boundary rings, and the dense lookup
// structures the extended e-cube router queries on every hop. Preparation
// is split from querying so that one Planner, built once per fault-state
// version, serves any number of concurrent Route/RouteAll calls — the
// planner is read-only after construction and safe for concurrent use.
//
// A Planner built from an engine snapshot (NewPlanner) reuses the
// snapshot's cached polygons instead of re-flooding the disabled union
// the way NewPlannerForBlocked does. Either way the ring index is one
// dense per-mesh slice, and a bounding box per region lets pathBlocked
// reject non-intersecting regions without scanning the whole e-cube path.
type Planner struct {
	mesh    grid.Mesh
	blocked *nodeset.Set // union of the regions; shared, read-only

	regions []*nodeset.Set
	bounds  []grid.Rect // nodeset.Bounds(regions[i]), for fast path rejection
	rings   [][]grid.Coord

	regionOf []int32 // dense node index -> region id, -1 when routable

	// Dense ring index: ringHead[node index] chains through the flat
	// ringNext/ringRegion/ringPos arrays, one entry per in-mesh ring cell.
	// Pinched regions revisit ring cells, so one node can carry several
	// entries even within a single region; entries are chained in
	// ascending (region, position) order so occurrence enumeration is
	// deterministic.
	ringHead   []int32
	ringNext   []int32
	ringRegion []int32
	ringPos    []int32
}

// NewPlanner prepares routing over a live engine snapshot, reusing the
// snapshot's cached per-component polygons and disabled union instead of
// recomputing them from the fault set. Polygons of distinct components may
// touch or overlap once closed; such polygons are merged into one detour
// region, exactly as a re-flood of the disabled union would, so routes
// are identical to NewPlannerForBlocked(mesh, snap.Disabled()).
func NewPlanner(snap *engine.Snapshot) *Planner {
	return newPlanner(snap.Mesh(), snap.Disabled(), mergeTouching(snap.Mesh(), snap.Polygons()))
}

// NewPlannerForBlocked prepares routing around an arbitrary blocked set
// (every node excluded from routing, faulty and disabled); its 8-connected
// regions form the faulty polygons the router detours around. The caller
// is responsible for those regions being orthogonal convex (use the mfp
// or dmfp packages): convexity is what bounds detours and guarantees
// deadlock freedom. The blocked set is cloned, so later caller mutations
// do not corrupt the planner.
func NewPlannerForBlocked(m grid.Mesh, blocked *nodeset.Set) *Planner {
	if m.Torus {
		panic("routing: extended e-cube is defined for non-torus meshes")
	}
	b := blocked.Clone()
	return newPlanner(m, b, kernel.Regions(b))
}

// mergeTouching groups per-component polygons whose union is 8-connected
// and unions each group, so the planner's regions match the 8-connected
// regions of the disabled union. Separate fault components are 8-separated
// by definition, but their orthogonal convex closures can grow until they
// touch or overlap; a ring walked around only one of two touching
// polygons would cross the other, so touching polygons must detour as one
// region.
func mergeTouching(m grid.Mesh, polygons []*nodeset.Set) []*nodeset.Set {
	n := len(polygons)
	if n <= 1 {
		return polygons
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	bounds := make([]grid.Rect, n)
	for i, p := range polygons {
		bounds[i] = nodeset.Bounds(p)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if find(i) == find(j) || !bounds[i].Grow(1).Intersects(bounds[j]) {
				continue
			}
			if touching8(polygons[i], polygons[j]) {
				parent[find(j)] = find(i)
			}
		}
	}
	groups := make(map[int][]int, n)
	merged := false
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
		merged = merged || r != i
	}
	if !merged {
		return polygons
	}
	out := make([]*nodeset.Set, 0, len(groups))
	for _, members := range groups {
		if len(members) == 1 {
			out = append(out, polygons[members[0]])
			continue
		}
		u := nodeset.New(m)
		for _, i := range members {
			u.UnionWith(polygons[i])
		}
		out = append(out, u)
	}
	// Disjoint regions have unique first indices, so this sort alone pins
	// the row-major seed order kernel.Regions discovers regions in
	// (map iteration order above does not matter).
	sort.Slice(out, func(a, b int) bool { return out[a].FirstIndex() < out[b].FirstIndex() })
	return out
}

// touching8 reports whether the two sets overlap or are 8-adjacent.
func touching8(a, b *nodeset.Set) bool {
	if a.Len() > b.Len() {
		a, b = b, a
	}
	window := nodeset.Bounds(b).Grow(1)
	found := false
	var buf []grid.Coord
	a.Each(func(c grid.Coord) {
		if found || !window.Contains(c) {
			return
		}
		if b.Has(c) {
			found = true
			return
		}
		buf = a.Mesh().Neighbors8(c, buf[:0])
		for _, nb := range buf {
			if b.Has(nb) {
				found = true
				return
			}
		}
	})
	return found
}

// newPlanner builds the dense routing state shared by both construction
// paths. blocked must be the union of regions; both are retained, not
// copied.
func newPlanner(m grid.Mesh, blocked *nodeset.Set, regions []*nodeset.Set) *Planner {
	start := time.Now()
	p := &Planner{
		mesh:     m,
		blocked:  blocked,
		regions:  regions,
		bounds:   make([]grid.Rect, len(regions)),
		rings:    make([][]grid.Coord, len(regions)),
		regionOf: make([]int32, m.Size()),
		ringHead: make([]int32, m.Size()),
	}
	for i := range p.regionOf {
		p.regionOf[i] = -1
		p.ringHead[i] = -1
	}
	total := 0
	for id, reg := range regions {
		reg.Each(func(c grid.Coord) { p.regionOf[m.Index(c)] = int32(id) })
		p.bounds[id] = nodeset.Bounds(reg)
		p.rings[id] = expandRing(reg, polygon.OuterRing(reg))
		total += len(p.rings[id])
	}
	p.ringNext = make([]int32, 0, total)
	p.ringRegion = make([]int32, 0, total)
	p.ringPos = make([]int32, 0, total)
	// Prepend entries walking regions and positions backwards, so each
	// node's chain enumerates in ascending (region, position) order.
	for id := len(regions) - 1; id >= 0; id-- {
		ring := p.rings[id]
		for i := len(ring) - 1; i >= 0; i-- {
			if !m.Contains(ring[i]) {
				continue // virtual halo cell of a border region
			}
			node := m.Index(ring[i])
			p.ringNext = append(p.ringNext, p.ringHead[node])
			p.ringRegion = append(p.ringRegion, int32(id))
			p.ringPos = append(p.ringPos, int32(i))
			p.ringHead[node] = int32(len(p.ringNext) - 1)
		}
	}
	metricPlannerBuilds.Inc()
	metricPlannerBuildSeconds.ObserveDuration(time.Since(start))
	return p
}

// Mesh returns the planner's mesh.
func (p *Planner) Mesh() grid.Mesh { return p.mesh }

// Blocked reports whether the node is excluded from routing.
func (p *Planner) Blocked(c grid.Coord) bool { return p.blocked.Has(c) }

// BlockedCount returns the number of nodes excluded from routing.
func (p *Planner) BlockedCount() int { return p.blocked.Len() }

// Regions returns the faulty regions the planner detours around
// (read-only).
func (p *Planner) Regions() []*nodeset.Set { return p.regions }

// ringPositions appends every position of c on the given region's ring to
// buf, in ascending order. Pinched regions can list a cell more than once.
func (p *Planner) ringPositions(region int, c grid.Coord, buf []int) []int {
	for e := p.ringHead[p.mesh.Index(c)]; e >= 0; e = p.ringNext[e] {
		if int(p.ringRegion[e]) == region {
			buf = append(buf, int(p.ringPos[e]))
		}
	}
	return buf
}

// pathBlocked reports whether the remaining e-cube path from cur to dst
// (east/west along cur's row, then north/south along dst's column) crosses
// region id. The region's bounding box rejects or narrows the scan before
// any set probes.
func (p *Planner) pathBlocked(id int, cur, dst grid.Coord) bool {
	reg, b := p.regions[id], p.bounds[id]
	if cur.Y >= b.MinY && cur.Y <= b.MaxY {
		x0, x1 := cur.X, dst.X
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if x0 < b.MinX {
			x0 = b.MinX
		}
		if x1 > b.MaxX {
			x1 = b.MaxX
		}
		for x := x0; x <= x1; x++ {
			if reg.Has(grid.XY(x, cur.Y)) {
				return true
			}
		}
	}
	if dst.X >= b.MinX && dst.X <= b.MaxX {
		y0, y1 := cur.Y, dst.Y
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		if y0 < b.MinY {
			y0 = b.MinY
		}
		if y1 > b.MaxY {
			y1 = b.MaxY
		}
		for y := y0; y <= y1; y++ {
			if reg.Has(grid.XY(dst.X, y)) {
				return true
			}
		}
	}
	return false
}

// Route sends one message from src to dst and returns its trajectory,
// following the extended e-cube algorithm documented on this package.
func (p *Planner) Route(src, dst grid.Coord) (*Route, error) {
	r, err := p.route(src, dst)
	routeOutcome(err).Inc()
	return r, err
}

func (p *Planner) route(src, dst grid.Coord) (*Route, error) {
	if !p.mesh.Contains(src) || !p.mesh.Contains(dst) {
		return nil, fmt.Errorf("routing: endpoints %v -> %v outside %v", src, dst, p.mesh)
	}
	if p.blocked.Has(src) || p.blocked.Has(dst) {
		return nil, ErrBlockedEndpoint
	}
	route := &Route{Src: src, Dst: dst}
	budget := 6*p.mesh.Size() + 16
	cur := src
	for cur != dst {
		if len(route.Hops) > budget {
			return nil, ErrHopBudget
		}
		t := classify(cur, dst)
		var dir grid.Direction
		switch t {
		case WE:
			dir = grid.East
		case EW:
			dir = grid.West
		case NS:
			dir = grid.South
		case SN:
			dir = grid.North
		}
		next, ok := p.mesh.Step(cur, dir)
		if !ok {
			return nil, fmt.Errorf("routing: e-cube step off the mesh at %v", cur)
		}
		if !p.blocked.Has(next) {
			route.Hops = append(route.Hops, Hop{From: cur, To: next, Type: t})
			cur = next
			continue
		}
		// Abnormal mode: travel the region's boundary ring until the
		// region stops affecting the remaining e-cube path.
		region := int(p.regionOf[p.mesh.Index(next)])
		var err error
		cur, err = p.detour(route, region, cur, dst, t)
		if err != nil {
			return nil, err
		}
	}
	return route, nil
}

// walkOutcome is one dry-run of a ring walk: where it ended, in how many
// hops, and with what error (nil when the message re-normalized).
type walkOutcome struct {
	end  grid.Coord
	hops int
	err  error
}

// walkRing walks the boundary ring of region id from position start (which
// holds cur) in direction dir until the message becomes normal again. When
// route is non-nil the hops are recorded; the dry-run form (route nil)
// only computes the outcome. Besides the region no longer blocking the
// remaining e-cube path, the exit must not regress the message type (a
// WE-bound message never exits east of the destination column, a NS-bound
// one exits on the destination column, and so on) — this one-way type
// discipline is what makes the four-virtual-channel scheme deadlock-free.
func (p *Planner) walkRing(route *Route, id, start int, cur, dst grid.Coord, t MessageType, dir int) walkOutcome {
	ring := p.rings[id]
	pos := start
	hops := 0
	for i := 0; i <= len(ring)+1; i++ {
		if cur == dst {
			return walkOutcome{end: cur, hops: hops}
		}
		if exitOK(t, cur, dst) && !p.pathBlocked(id, cur, dst) {
			return walkOutcome{end: cur, hops: hops} // normal again
		}
		pos = (pos + dir + len(ring)) % len(ring)
		next := ring[pos]
		if !p.mesh.Contains(next) {
			return walkOutcome{end: cur, hops: hops, err: ErrBorderRegion}
		}
		if route != nil {
			route.Hops = append(route.Hops, Hop{From: cur, To: next, Type: t, Abnormal: true})
			route.AbnormalHops++
		}
		hops++
		cur = next
	}
	return walkOutcome{end: cur, hops: hops,
		err: fmt.Errorf("routing: message circled region %d without escaping", id)}
}

// detour walks the boundary ring of the region from cur until the message
// becomes normal again, appending abnormal hops. The ring of a pinched
// region revisits cells, so cur can hold several ring positions; each
// occurrence continues along a different boundary arc, and committing to
// the first one blindly can drag the message through a dead-end spur (or
// the long way around the pinch). The walk is therefore dry-run from every
// occurrence first and replayed from the one that re-normalizes in the
// fewest hops — for the common simple-ring case (one occurrence) this is
// exactly the single walk.
func (p *Planner) detour(route *Route, id int, cur, dst grid.Coord, t MessageType) (grid.Coord, error) {
	var occBuf [4]int
	occ := p.ringPositions(id, cur, occBuf[:0])
	if len(occ) == 0 {
		return cur, fmt.Errorf("routing: node %v is not on the ring of region %d", cur, id)
	}
	dir := orientation(t, cur, dst)
	start := occ[0]
	if len(occ) > 1 {
		best := p.walkRing(nil, id, occ[0], cur, dst, t, dir)
		for _, o := range occ[1:] {
			if alt := p.walkRing(nil, id, o, cur, dst, t, dir); better(alt, best) {
				best, start = alt, o
			}
		}
	}
	out := p.walkRing(route, id, start, cur, dst, t, dir)
	return out.end, out.err
}

// better reports whether walk outcome a beats b: successful walks beat
// failed ones, and among successful walks fewer hops win. Ties keep the
// earlier occurrence (b), so the choice is deterministic.
func better(a, b walkOutcome) bool {
	if (a.err == nil) != (b.err == nil) {
		return a.err == nil
	}
	return a.err == nil && a.hops < b.hops
}

// exitOK is the type-discipline half of the re-normalization condition
// (the other half is pathBlocked): the exit cell must not regress the
// message type.
func exitOK(t MessageType, v, dst grid.Coord) bool {
	switch t {
	case WE:
		return v.X <= dst.X
	case EW:
		return v.X >= dst.X
	case NS:
		return v.X == dst.X && v.Y >= dst.Y
	default: // SN
		return v.X == dst.X && v.Y <= dst.Y
	}
}

// Query is one RouteAll source/destination pair.
type Query struct {
	Src, Dst grid.Coord
}

// Result is the outcome of one RouteAll query: the route, or the error
// Route would have returned for the same pair.
type Result struct {
	Route *Route
	Err   error
}

// RouteAll routes every query on a bounded worker pool and returns the
// results in query order. workers follows the convention of the sweep
// harness: 0 means one worker per CPU, 1 forces the serial path; results
// are identical for every value, since queries are independent and the
// planner is immutable.
func (p *Planner) RouteAll(queries []Query, workers int) []Result {
	out := make([]Result, len(queries))
	pool.ForEach(len(queries), workers, func(i int) {
		r, err := p.Route(queries[i].Src, queries[i].Dst)
		out[i] = Result{Route: r, Err: err}
	})
	return out
}
