package routing

import (
	"cmp"
	"fmt"
	"slices"
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
// A Planner built from an engine snapshot (NewPlanner, NewPlannerFrom)
// reuses the snapshot's cached polygons instead of re-flooding the
// disabled union the way NewPlannerForBlocked does, and NewPlannerFrom
// also keeps the regions and rings of an earlier planner that did not
// change. Either way one dense per-node index answers both the region and
// the ring lookups, and a bounding box per region lets pathBlocked reject
// non-intersecting regions without scanning the whole e-cube path.
//
// Cost model of a query: a normal e-cube segment (a row run, then a
// column run) is one word scan of a blocked bitset, the row-major blocked
// set for a row and a column-major copy of it for a column, however many
// hops the segment spans; a detour costs its ring hops, each with a
// bounding-box-narrowed pathBlocked probe. The column-major copy is the
// planner's own: NewPlannerFrom patches its predecessor's copy with the
// regions that changed, so a kept region is never transposed again.
type Planner struct {
	mesh    grid.Mesh
	blocked *nodeset.Set // union of the regions; shared, read-only
	// cols is blocked transposed, over the mesh with width and height
	// swapped: node (x, y) is its index x*H + y, so each mesh column is
	// one contiguous run of bits.
	cols *nodeset.Set

	regions []*nodeset.Set
	bounds  []grid.Rect // nodeset.Bounds(regions[i]), for fast path rejection
	rings   [][]grid.Coord

	// The snapshot polygons the regions were merged from, in seed order,
	// index-aligned with their components' seeds, their bounds and the
	// region holding each: what NewPlannerFrom diffs a later snapshot
	// against. Nil on a NewPlannerForBlocked planner.
	polys      []*nodeset.Set
	seeds      []int
	polyBounds []grid.Rect
	polyRegion []int32

	// node is the dense per-node index, one int32 per mesh node: -(id+1)
	// for a node of region id, and for a routable node the ring entry its
	// chain starts at, plus one (0 when it lies on no ring). One array
	// serves both lookups because no ring cell is blocked: ring cells are
	// 8-adjacent to their region, so a blocked one would belong to it.
	node []int32

	// Ring entries, one per in-mesh ring cell, chained per node through
	// next (an entry index plus one, 0 ending the chain). Pinched regions
	// revisit ring cells, so one node can carry several entries even within
	// a single region; entries are chained in ascending (region, position)
	// order so occurrence enumeration is deterministic.
	ringEntries []ringEntry
}

// ringEntry is one occurrence of a node on a region's ring.
type ringEntry struct{ next, region, pos int32 }

// NewPlanner prepares routing over a live engine snapshot, reusing the
// snapshot's cached per-component polygons and disabled union instead of
// recomputing them from the fault set. Polygons of distinct components may
// touch or overlap once closed; such polygons are merged into one detour
// region, exactly as a re-flood of the disabled union would, so routes
// are identical to NewPlannerForBlocked(mesh, snap.Disabled()).
func NewPlanner(snap *engine.Snapshot) *Planner { return NewPlannerFrom(nil, snap) }

// NewPlannerFrom prepares routing over snap like NewPlanner, reusing what
// prev, a planner of another snapshot of the same mesh, already built.
// Published polygons are immutable, so the two seed-ordered polygon lists
// are diffed by pointer: only the polygons prev did not hold are merged
// with their neighbours again, and every region whose polygons all come
// unchanged from one prev region, with none of its polygons gone and none
// joining, keeps prev's union set, bounds and ring. The dense node index
// is refilled from the region list.
//
// The result equals NewPlanner(snap) for any prev: nil, a planner of an
// older or newer version, of an engine since dropped, of another mesh or
// from NewPlannerForBlocked (the last three share nothing and cost a full
// build). It holds no reference to prev.
func NewPlannerFrom(prev *Planner, snap *engine.Snapshot) *Planner {
	start := time.Now()
	m := snap.Mesh()
	if prev != nil && (prev.mesh != m || prev.polys == nil) {
		prev = nil
	}
	p := &Planner{mesh: m, blocked: snap.Disabled()}
	origin := p.mergeRegions(prev, snap.Components(), snap.Polygons())
	p.indexRings()
	p.indexColumns(prev, origin)
	built := 0
	for _, o := range origin {
		if o < 0 {
			built++
		}
	}
	observeBuild(start, len(p.regions)-built, built)
	return p
}

// NewPlannerForBlocked prepares routing around an arbitrary blocked set
// (every node excluded from routing, faulty and disabled); its 8-connected
// regions form the faulty polygons the router detours around. The caller
// is responsible for those regions being orthogonal convex (use the mfp
// or dmfp packages): convexity is what bounds detours and lets every route
// be delivered. Deadlock freedom holds only where the regions are
// rectangular blocks (the block package); see the package comment. The
// blocked set is cloned, so later caller mutations do not corrupt the
// planner.
func NewPlannerForBlocked(m grid.Mesh, blocked *nodeset.Set) *Planner {
	if m.Torus {
		panic("routing: extended e-cube is defined for non-torus meshes")
	}
	start := time.Now()
	b := blocked.Clone()
	p := &Planner{mesh: m, blocked: b, regions: kernel.Regions(b)}
	p.bounds = make([]grid.Rect, len(p.regions))
	p.rings = make([][]grid.Coord, len(p.regions))
	var tracer ringTracer
	for id, reg := range p.regions {
		p.bounds[id] = nodeset.Bounds(reg)
		p.rings[id] = tracer.trace(reg)
	}
	p.indexRings()
	p.indexColumns(nil, nil)
	observeBuild(start, 0, len(p.regions))
	return p
}

// ringTracer traces the 4-connected boundary rings the router walks
// around regions, reusing its two buffers from one region to the next, so
// each ring costs one exactly sized allocation.
type ringTracer struct{ walk, ring []grid.Coord }

func (t *ringTracer) trace(reg *nodeset.Set) []grid.Coord {
	t.walk = polygon.AppendOuterRing(t.walk[:0], reg)
	t.ring = appendExpandedRing(t.ring[:0], reg, t.walk)
	return slices.Clone(t.ring)
}

// mergeRegions fills the planner's polygon bookkeeping and its regions,
// bounds and rings from the snapshot's seed-ordered components and
// polygons, and returns each region's origin: the prev region it kept,
// with its union set and ring, or -1 for a region it built (every region
// when prev is nil).
//
// Polygons whose union is 8-connected form one region, so the regions
// match the 8-connected regions of the disabled union. Separate fault
// components are 8-separated by definition, but their orthogonal convex
// closures can grow until they touch or overlap; a ring walked around
// only one of two touching polygons would cross the other, so touching
// polygons must detour as one region. A union-find groups them.
func (p *Planner) mergeRegions(prev *Planner, comps, polys []*nodeset.Set) (origin []int32) {
	m := p.mesh
	n := len(polys)
	p.polys = polys
	p.seeds = make([]int, n)
	p.polyBounds = make([]grid.Rect, n)
	p.polyRegion = make([]int32, n)

	// from[i] is the prev region polygon i comes from, -1 when prev did not
	// hold it (and, below, when that region lost a polygon). Both lists are
	// in seed order, so one merge walk pairs them up.
	from := make([]int32, n)
	changed := 0
	j := 0
	for i, comp := range comps {
		seed := comp.FirstIndex()
		p.seeds[i] = seed
		from[i] = -1
		if prev != nil {
			for j < len(prev.seeds) && prev.seeds[j] < seed {
				j++
			}
			if j < len(prev.seeds) && prev.seeds[j] == seed && prev.polys[j] == polys[i] {
				from[i] = prev.polyRegion[j]
				p.polyBounds[i] = prev.polyBounds[j]
				continue
			}
		}
		p.polyBounds[i] = nodeset.Bounds(polys[i])
		changed++
	}

	// A prev region is intact when the snapshot still holds all of its
	// polygons. Its polygons are joined untested: they touched each other
	// in prev and are unchanged. Every other polygon, new or left over from
	// a region that lost one, is re-merged: it finds its neighbours
	// through a box index over the polygons' bounds, queried with its own
	// bounds grown by one cell, and joins each one it touches. A pair of
	// touching polygons either has a re-merged member or lies in one intact
	// region, so every touching pair is joined.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	if prev != nil {
		// missing[r] counts the polygons of prev region r the snapshot no
		// longer holds; a region is intact when it misses none.
		missing := make([]int32, len(prev.regions))
		for _, r := range prev.polyRegion {
			missing[r]++
		}
		for _, r := range from {
			if r >= 0 {
				missing[r]--
			}
		}
		joined := make([]int32, len(prev.regions)) // a polygon of each intact region, plus one
		for i, r := range from {
			switch {
			case r < 0:
			case missing[r] > 0:
				from[i] = -1
				changed++
			case joined[r] == 0:
				joined[r] = int32(i) + 1
			default:
				parent[find(int32(i))] = find(joined[r] - 1)
			}
		}
	}
	if changed > 0 {
		boxes := make([]kernel.Box, n)
		for i, b := range p.polyBounds {
			boxes[i] = boxOf(b)
		}
		idx := kernel.NewBoxIndex[grid.Coord](m)
		idx.Load(boxes)
		var near []int32
		for i, poly := range polys {
			if from[i] >= 0 {
				continue
			}
			near = idx.Query(boxOf(p.polyBounds[i].Grow(1).Clamp(m)), near[:0])
			for _, k := range near {
				a, b := find(int32(i)), find(k)
				if a != b && touching8(poly, polys[k]) {
					parent[b] = a
				}
			}
		}
	}

	// One group per union-find root. A group whose polygons all come from
	// one intact prev region is that region (the region's polygons are
	// joined to each other, and a re-merged polygon joining them would
	// reset from), so it is kept: its union set, bounds and ring are
	// prev's.
	type group struct {
		first  int   // the region's first node index
		from   int32 // the intact prev region it is, or -1
		bounds grid.Rect
		set    *nodeset.Set
		union  *nodeset.Set // set, when it is a union this build allocated
	}
	groupOf := make([]int32, n) // polygon -> group, by way of its root
	groups := make([]group, 0, n)
	for i := range polys {
		r := find(int32(i))
		if r == int32(i) {
			groupOf[i] = int32(len(groups))
			groups = append(groups, group{from: from[i], bounds: grid.EmptyRect()})
		}
	}
	for i := range polys {
		groupOf[i] = groupOf[find(int32(i))]
		g := &groups[groupOf[i]]
		if g.from != from[i] {
			g.from = -1
		}
		g.bounds = g.bounds.Union(p.polyBounds[i])
	}
	for i, poly := range polys {
		g := &groups[groupOf[i]]
		switch {
		case g.from >= 0:
			g.set = prev.regions[g.from]
		case g.set == nil:
			g.set = poly
		default:
			if g.union == nil {
				g.union = nodeset.New(m)
				g.union.UnionWith(g.set)
				g.set = g.union
			}
			g.union.UnionWith(poly)
		}
	}

	// Disjoint regions have unique first indices, so sorting by them alone
	// pins the row-major seed order kernel.Regions discovers regions in.
	order := make([]int32, len(groups))
	for k := range groups {
		groups[k].first = groups[k].set.FirstIndex()
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(groups[a].first, groups[b].first) })
	rank := make([]int32, len(groups))
	p.regions = make([]*nodeset.Set, len(groups))
	p.bounds = make([]grid.Rect, len(groups))
	p.rings = make([][]grid.Coord, len(groups))
	origin = make([]int32, len(groups))
	var tracer ringTracer
	for id, k := range order {
		g := &groups[k]
		rank[k] = int32(id)
		p.regions[id], p.bounds[id], origin[id] = g.set, g.bounds, g.from
		if g.from >= 0 {
			p.rings[id] = prev.rings[g.from]
		} else {
			p.rings[id] = tracer.trace(g.set)
		}
	}
	for i, k := range groupOf {
		p.polyRegion[i] = rank[k]
	}
	return origin
}

// boxOf converts a non-empty rectangle to the box index's box.
func boxOf(r grid.Rect) kernel.Box {
	return kernel.Box{
		Lo: [3]int32{int32(r.MinX), int32(r.MinY)},
		Hi: [3]int32{int32(r.MaxX), int32(r.MaxY)},
	}
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

// indexRings fills the dense node index and the ring entries from the
// region list.
func (p *Planner) indexRings() {
	m := p.mesh
	p.node = make([]int32, m.Size())
	total := 0
	for id, reg := range p.regions {
		reg.EachIndex(func(i int) { p.node[i] = -int32(id) - 1 })
		total += len(p.rings[id])
	}
	p.ringEntries = make([]ringEntry, 0, total)
	// Prepend entries walking regions and positions backwards, so each
	// node's chain enumerates in ascending (region, position) order.
	for id := len(p.regions) - 1; id >= 0; id-- {
		ring := p.rings[id]
		for i := len(ring) - 1; i >= 0; i-- {
			if !m.Contains(ring[i]) {
				continue // virtual halo cell of a border region
			}
			node := m.Index(ring[i])
			if p.node[node] < 0 {
				panic(fmt.Sprintf("routing: ring cell %v of region %d is blocked", ring[i], id))
			}
			p.ringEntries = append(p.ringEntries, ringEntry{next: p.node[node], region: int32(id), pos: int32(i)})
			p.node[node] = int32(len(p.ringEntries))
		}
	}
}

// indexColumns fills the column-major copy of the blocked set. Without a
// predecessor it transposes the whole set. With one it patches prev's
// copy: it clears every prev region p did not keep and adds every region
// p built (origin -1), so the cost follows the diff. Clearing before
// adding is exact: kept regions equal prev regions, prev regions are
// disjoint, so a cleared node that is still blocked lies in a built
// region and is added back.
func (p *Planner) indexColumns(prev *Planner, origin []int32) {
	m := p.mesh
	transpose := func(i int) int { return i%m.W*m.H + i/m.W }
	if prev == nil {
		p.cols = nodeset.New(grid.New(m.H, m.W))
		p.blocked.EachIndex(func(i int) { p.cols.AddIndex(transpose(i)) })
		return
	}
	p.cols = prev.cols.Clone()
	kept := make([]bool, len(prev.regions))
	for _, o := range origin {
		if o >= 0 {
			kept[o] = true
		}
	}
	for id, reg := range prev.regions {
		if !kept[id] {
			reg.EachIndex(func(i int) { p.cols.RemoveIndex(transpose(i)) })
		}
	}
	for id, reg := range p.regions {
		if origin[id] < 0 {
			reg.EachIndex(func(i int) { p.cols.AddIndex(transpose(i)) })
		}
	}
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
	for e := p.node[p.mesh.Index(c)]; e > 0; e = p.ringEntries[e-1].next {
		if r := p.ringEntries[e-1]; int(r.region) == region {
			buf = append(buf, int(r.pos))
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

// Measure walks the same route as Route and returns only its length and
// abnormal hop count, or the error Route would return. It records no
// trajectory and allocates nothing on success, so a caller that needs the
// counts alone (a batch reply) pays for the walk and nothing else.
func (p *Planner) Measure(src, dst grid.Coord) (length, abnormal int, err error) {
	length, abnormal, err = p.measure(src, dst)
	routeOutcome(err).Inc()
	return length, abnormal, err
}

// AppendPath walks the same route as Route and appends its node sequence
// to path, the source first and then every hop's target, as Route.Path
// lists them; the route's length is the number of nodes appended minus
// one. It returns the extended slice and the abnormal hop count, or path
// unchanged and the error Route would return. It builds no Hop slice, so
// a caller that writes the path out (mfpd's single-pair reply) allocates
// nothing once its buffer has grown to fit.
func (p *Planner) AppendPath(path []grid.Coord, src, dst grid.Coord) ([]grid.Coord, int, error) {
	out, abnormal, err := p.appendPath(path, src, dst)
	routeOutcome(err).Inc()
	return out, abnormal, err
}

func (p *Planner) route(src, dst grid.Coord) (*Route, error) {
	if err := p.checkEndpoints(src, dst); err != nil {
		return nil, err
	}
	// Detours add little beyond the Manhattan distance on meshes of convex
	// regions, so one allocation sized with some slack holds most routes.
	dist := abs(dst.X-src.X) + abs(dst.Y-src.Y)
	tr := trail{hops: make([]Hop, 0, dist+dist/4+32)}
	_, abnormal, err := p.walk(&tr, src, dst)
	if err != nil {
		return nil, err
	}
	return &Route{Src: src, Dst: dst, Hops: tr.hops, AbnormalHops: abnormal}, nil
}

func (p *Planner) measure(src, dst grid.Coord) (length, abnormal int, err error) {
	if err := p.checkEndpoints(src, dst); err != nil {
		return 0, 0, err
	}
	return p.walk(nil, src, dst)
}

func (p *Planner) appendPath(path []grid.Coord, src, dst grid.Coord) ([]grid.Coord, int, error) {
	if err := p.checkEndpoints(src, dst); err != nil {
		return path, 0, err
	}
	tr := trail{nodes: append(path, src), asNodes: true}
	_, abnormal, err := p.walk(&tr, src, dst)
	if err != nil {
		return path, 0, err
	}
	return tr.nodes, abnormal, nil
}

// checkEndpoints rejects a query whose source or destination is off the
// mesh or blocked.
func (p *Planner) checkEndpoints(src, dst grid.Coord) error {
	if !p.mesh.Contains(src) || !p.mesh.Contains(dst) {
		return fmt.Errorf("routing: endpoints %v -> %v outside %v", src, dst, p.mesh)
	}
	if p.blocked.Has(src) || p.blocked.Has(dst) {
		return ErrBlockedEndpoint
	}
	return nil
}

// trail is where a walk records its hops: as Hops for Route, or as the
// nodes they reach for AppendPath. Measure walks without one.
type trail struct {
	hops    []Hop
	nodes   []grid.Coord
	asNodes bool
}

func (tr *trail) add(h Hop) {
	if tr.asNodes {
		tr.nodes = append(tr.nodes, h.To)
	} else {
		tr.hops = append(tr.hops, h)
	}
}

// line records the normal hops of a straight run from one node to another.
func (tr *trail) line(from, to grid.Coord, t MessageType) {
	d := grid.XY(sign(to.X-from.X), sign(to.Y-from.Y))
	for c := from; c != to; {
		next := c.Add(d)
		tr.add(Hop{From: c, To: next, Type: t})
		c = next
	}
}

// walk runs the extended e-cube route between two valid endpoints and
// returns its length and abnormal hop count, recording the hops in tr
// when it is non-nil (Measure passes nil and only counts). A normal
// message advances a whole segment per step; only detours go hop by hop.
func (p *Planner) walk(tr *trail, src, dst grid.Coord) (length, abnormal int, err error) {
	// The budget bounds the hops taken before each hop and each detour
	// starts; within a segment the last hop's check implies the others.
	budget := 6*p.mesh.Size() + 16
	cur := src
	for cur != dst {
		t := classify(cur, dst)
		stop, region := p.segment(cur, dst, t)
		if k := abs(stop.X-cur.X) + abs(stop.Y-cur.Y); k > 0 {
			if length+k-1 > budget {
				return 0, 0, ErrHopBudget
			}
			if tr != nil {
				tr.line(cur, stop, t)
			}
			length += k
			cur = stop
		}
		if region < 0 {
			continue
		}
		if length > budget {
			return 0, 0, ErrHopBudget
		}
		// Abnormal mode: travel the region's boundary ring until the
		// region stops affecting the remaining e-cube path.
		out := p.detour(tr, region, cur, dst, t)
		if out.err != nil {
			return 0, 0, out.err
		}
		length += out.hops
		abnormal += out.hops
		cur = out.end
	}
	return length, abnormal, nil
}

// segment scans the e-cube segment a message of type t at cur travels
// next: east or west along cur's row to dst's column, or north or south
// along dst's column (cur's, for a column type) to dst. It returns the
// node before the segment's first blocked node and that node's region, or
// the segment's end and -1 when nothing blocks it.
func (p *Planner) segment(cur, dst grid.Coord, t MessageType) (stop grid.Coord, region int) {
	m := p.mesh
	if t == WE || t == EW {
		row := cur.Y * m.W
		hit := nearest(p.blocked, row+cur.X, row+dst.X, t == WE)
		if hit < 0 {
			return grid.XY(dst.X, cur.Y), -1
		}
		return grid.XY(hit-row-step(t == WE), cur.Y), int(-p.node[hit] - 1)
	}
	col := cur.X * m.H
	hit := nearest(p.cols, col+cur.Y, col+dst.Y, t == SN)
	if hit < 0 {
		return dst, -1
	}
	y := hit - col
	return grid.XY(cur.X, y-step(t == SN)), int(-p.node[y*m.W+cur.X] - 1)
}

// nearest returns the member of s strictly after from, up to and
// including to, that lies nearest from: the first index when the run
// climbs the index order (up), the last otherwise; -1 when there is none.
func nearest(s *nodeset.Set, from, to int, up bool) int {
	if up {
		first, _, _ := s.SpanOfRange(from+1, to+1)
		return first
	}
	_, last, _ := s.SpanOfRange(to, from)
	return last
}

// step is the index step of a run: +1 climbing, -1 descending.
func step(up bool) int {
	if up {
		return 1
	}
	return -1
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
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
// tr is non-nil the hops are recorded; the dry-run form (tr nil) only
// computes the outcome. Besides the region no longer blocking the
// remaining e-cube path, the exit must not regress the message type (a
// WE-bound message never exits east of the destination column, a NS-bound
// one exits on the destination column, and so on) — this one-way type
// discipline is what makes the four-virtual-channel scheme deadlock-free
// around rectangular blocks (not around every polygon; see the package
// comment).
func (p *Planner) walkRing(tr *trail, id, start int, cur, dst grid.Coord, t MessageType, dir int) walkOutcome {
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
		if tr != nil {
			tr.add(Hop{From: cur, To: next, Type: t, Abnormal: true})
		}
		hops++
		cur = next
	}
	return walkOutcome{end: cur, hops: hops,
		err: fmt.Errorf("routing: message circled region %d without escaping", id)}
}

// detour walks the boundary ring of the region from cur until the message
// becomes normal again, recording abnormal hops in tr when it is non-nil. The ring of a pinched region revisits cells, so cur can hold
// several ring positions; each occurrence continues along a different
// boundary arc, and committing to the first one blindly can drag the
// message through a dead-end spur (or the long way around the pinch). The
// walk is therefore dry-run from every occurrence first and replayed from
// the one that re-normalizes in the fewest hops — for the common
// simple-ring case (one occurrence) this is exactly the single walk, and
// without a trail the winning dry run is the outcome.
func (p *Planner) detour(tr *trail, id int, cur, dst grid.Coord, t MessageType) walkOutcome {
	var occBuf [4]int
	occ := p.ringPositions(id, cur, occBuf[:0])
	if len(occ) == 0 {
		return walkOutcome{end: cur, err: fmt.Errorf("routing: node %v is not on the ring of region %d", cur, id)}
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
		if tr == nil {
			return best
		}
	}
	return p.walkRing(tr, id, start, cur, dst, t, dir)
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

// Verify reports the first way the planner differs from ref, a planner of
// the same blocked set built another way: the blocked set and its
// column-major copy, the region list in order (each region's nodes,
// bounds and ring), then the route or error of every query, compared hop
// by hop and byte by byte, and the planner's Measure and AppendPath of
// the query against the reference route's counts, path and error. It is
// the differential check of the incremental construction, run by its
// tests and by the stress gate; its queries are not counted in
// routing_routes_total.
func (p *Planner) Verify(ref *Planner, queries []Query) error {
	if p.mesh != ref.mesh {
		return fmt.Errorf("routing: planner over %v, reference over %v", p.mesh, ref.mesh)
	}
	if !p.blocked.Equal(ref.blocked) {
		return fmt.Errorf("routing: blocked set differs from the reference's")
	}
	if !p.cols.Equal(ref.cols) {
		return fmt.Errorf("routing: column-major blocked set differs from the reference's")
	}
	if len(p.regions) != len(ref.regions) {
		return fmt.Errorf("routing: %d regions, reference has %d", len(p.regions), len(ref.regions))
	}
	for id, reg := range p.regions {
		switch {
		case !reg.Equal(ref.regions[id]):
			return fmt.Errorf("routing: region %d differs: %v, reference %v", id, reg, ref.regions[id])
		case p.bounds[id] != ref.bounds[id]:
			return fmt.Errorf("routing: region %d bounds %v, reference %v", id, p.bounds[id], ref.bounds[id])
		case !slices.Equal(p.rings[id], ref.rings[id]):
			return fmt.Errorf("routing: region %d ring differs", id)
		}
	}
	for _, q := range queries {
		got, gerr := p.route(q.Src, q.Dst)
		want, werr := ref.route(q.Src, q.Dst)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Errorf("routing: %v -> %v: error %v, reference %v", q.Src, q.Dst, gerr, werr)
		}
		if gerr == nil && (got.AbnormalHops != want.AbnormalHops || !slices.Equal(got.Hops, want.Hops)) {
			return fmt.Errorf("routing: %v -> %v: path %v, reference %v", q.Src, q.Dst, got.Path(), want.Path())
		}
		length, abnormal, merr := p.measure(q.Src, q.Dst)
		if fmt.Sprint(merr) != fmt.Sprint(werr) {
			return fmt.Errorf("routing: %v -> %v: measure error %v, reference %v", q.Src, q.Dst, merr, werr)
		}
		if werr == nil && (length != want.Length() || abnormal != want.AbnormalHops) {
			return fmt.Errorf("routing: %v -> %v: measured %d hops (%d abnormal), reference %d (%d)",
				q.Src, q.Dst, length, abnormal, want.Length(), want.AbnormalHops)
		}
		path, abnormal, perr := p.appendPath(nil, q.Src, q.Dst)
		if fmt.Sprint(perr) != fmt.Sprint(werr) {
			return fmt.Errorf("routing: %v -> %v: path error %v, reference %v", q.Src, q.Dst, perr, werr)
		}
		if werr == nil && (abnormal != want.AbnormalHops || !slices.Equal(path, want.Path())) {
			return fmt.Errorf("routing: %v -> %v: appended path %v (%d abnormal), reference %v (%d)",
				q.Src, q.Dst, path, abnormal, want.Path(), want.AbnormalHops)
		}
	}
	return nil
}
