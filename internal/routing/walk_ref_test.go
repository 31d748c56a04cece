package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/grid"
)

// refWalk is the per-hop extended e-cube walk: it probes the blocked set
// before every normal hop. It is the reference the segment walk (walk) is
// held to; the two share the ring detours.
func (p *Planner) refWalk(tr *trail, src, dst grid.Coord) (length, abnormal int, err error) {
	budget := 6*p.mesh.Size() + 16
	cur := src
	for cur != dst {
		if length > budget {
			return 0, 0, ErrHopBudget
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
			return 0, 0, fmt.Errorf("routing: e-cube step off the mesh at %v", cur)
		}
		if !p.blocked.Has(next) {
			if tr != nil {
				tr.add(Hop{From: cur, To: next, Type: t})
			}
			length++
			cur = next
			continue
		}
		region := int(-p.node[p.mesh.Index(next)] - 1)
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

// refRoute is Route over the reference walk.
func (p *Planner) refRoute(src, dst grid.Coord) (*Route, error) {
	if err := p.checkEndpoints(src, dst); err != nil {
		return nil, err
	}
	var tr trail
	_, abnormal, err := p.refWalk(&tr, src, dst)
	if err != nil {
		return nil, err
	}
	return &Route{Src: src, Dst: dst, Hops: tr.hops, AbnormalHops: abnormal}, nil
}

// checkAgainstReference requires every sink of the segment walk to equal
// the reference walk on every query: Route's hops, Measure's counts, the
// nodes AppendPath writes after a prefix it must leave alone, and the
// error text of each.
func checkAgainstReference(t *testing.T, what string, p *Planner, queries []Query) (detoured, failed int) {
	t.Helper()
	prefix := []grid.Coord{grid.XY(-7, -7)}
	for _, q := range queries {
		want, werr := p.refRoute(q.Src, q.Dst)
		wantErr := fmt.Sprint(werr)
		got, gerr := p.route(q.Src, q.Dst)
		if fmt.Sprint(gerr) != wantErr {
			t.Fatalf("%s: %v -> %v: Route error %v, reference %v", what, q.Src, q.Dst, gerr, werr)
		}
		length, abnormal, merr := p.measure(q.Src, q.Dst)
		if fmt.Sprint(merr) != wantErr {
			t.Fatalf("%s: %v -> %v: Measure error %v, reference %v", what, q.Src, q.Dst, merr, werr)
		}
		path, pabnormal, perr := p.appendPath(slices.Clip(prefix), q.Src, q.Dst)
		if fmt.Sprint(perr) != wantErr {
			t.Fatalf("%s: %v -> %v: AppendPath error %v, reference %v", what, q.Src, q.Dst, perr, werr)
		}
		if path[0] != prefix[0] {
			t.Fatalf("%s: %v -> %v: AppendPath overwrote the buffer's prefix", what, q.Src, q.Dst)
		}
		if werr != nil {
			failed++
			if got != nil || length != 0 || abnormal != 0 || len(path) != len(prefix) {
				t.Fatalf("%s: %v -> %v: failed query returned a route, %d/%d hops or %d nodes",
					what, q.Src, q.Dst, length, abnormal, len(path)-len(prefix))
			}
			continue
		}
		if !slices.Equal(got.Hops, want.Hops) || got.AbnormalHops != want.AbnormalHops {
			t.Fatalf("%s: %v -> %v: Route %v (%d abnormal), reference %v (%d)",
				what, q.Src, q.Dst, got.Path(), got.AbnormalHops, want.Path(), want.AbnormalHops)
		}
		if length != want.Length() || abnormal != want.AbnormalHops {
			t.Fatalf("%s: %v -> %v: Measure %d hops (%d abnormal), reference %d (%d)",
				what, q.Src, q.Dst, length, abnormal, want.Length(), want.AbnormalHops)
		}
		if !slices.Equal(path[len(prefix):], want.Path()) || pabnormal != want.AbnormalHops {
			t.Fatalf("%s: %v -> %v: AppendPath %v (%d abnormal), reference %v (%d)",
				what, q.Src, q.Dst, path[len(prefix):], pabnormal, want.Path(), want.AbnormalHops)
		}
		if want.AbnormalHops > 0 {
			detoured++
		}
	}
	return detoured, failed
}

// edgeQueries returns the pairs that start or end on the mesh's border
// lines (row 0, column 0, the last row and the last column): every pair
// along each line, in both directions, and seeded pairs from each line to
// anywhere and back.
func edgeQueries(m grid.Mesh, seed int64) []Query {
	lines := [][]grid.Coord{}
	for _, y := range []int{0, m.H - 1} {
		var line []grid.Coord
		for x := 0; x < m.W; x++ {
			line = append(line, grid.XY(x, y))
		}
		lines = append(lines, line)
	}
	for _, x := range []int{0, m.W - 1} {
		var line []grid.Coord
		for y := 0; y < m.H; y++ {
			line = append(line, grid.XY(x, y))
		}
		lines = append(lines, line)
	}
	var qs []Query
	for _, line := range lines {
		for _, a := range line {
			for _, b := range line {
				qs = append(qs, Query{a, b})
			}
		}
	}
	for i, q := range pairSet(m, seed, 4*len(lines)*64) {
		line := lines[i%len(lines)]
		a := line[(i/len(lines))%len(line)]
		if i%2 == 0 {
			qs = append(qs, Query{a, q.Dst})
		} else {
			qs = append(qs, Query{q.Src, a})
		}
	}
	return qs
}

// lineQueries returns seeded same-row and same-column pairs.
func lineQueries(m grid.Mesh, seed int64, n int) []Query {
	qs := pairSet(m, seed, n)
	for i := range qs {
		if i%2 == 0 {
			qs[i].Dst.Y = qs[i].Src.Y
		} else {
			qs[i].Dst.X = qs[i].Src.X
		}
	}
	return qs
}

// TestSegmentWalkMatchesReference is the differential test of the segment
// walk. Meshes 100 and 65 wide (and 37 and 70 high, for the column-major
// copy) put row and column starts off word boundaries; faults reach the
// border, so border-region errors are part of the fixture; planners come
// from snapshots, from NewPlannerForBlocked and from a chain of
// NewPlannerFrom successors; and the pinched ring, the livelock shape and
// the route2d-scale mesh ride along.
func TestSegmentWalkMatchesReference(t *testing.T) {
	var detoured, failed int
	check := func(what string, p *Planner, queries []Query) {
		t.Helper()
		d, f := checkAgainstReference(t, what, p, queries)
		detoured += d
		failed += f
	}
	for i, m := range []grid.Mesh{grid.New(100, 37), grid.New(65, 70)} {
		for seed := int64(1); seed <= 3; seed++ {
			faults := fault.NewInjector(m, fault.Clustered, seed+int64(10*i)).Inject(m.Size() / 12)
			e, err := engine.New(m)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := e.Load(faults)
			if err != nil {
				t.Fatal(err)
			}
			queries := append(edgeQueries(m, seed), lineQueries(m, seed, 400)...)
			queries = append(queries, pairSet(m, seed, 400)...)
			what := fmt.Sprintf("%v seed %d", m, seed)
			check(what+" snapshot", NewPlanner(snap), queries)
			check(what+" re-flood", NewPlannerForBlocked(m, snap.Disabled()), queries)

			p := NewPlanner(snap)
			rng := rand.New(rand.NewSource(seed))
			for batch := 0; batch < 20; batch++ {
				if _, snap, err = e.Apply(churnBatch(rng, snap.Faults(), faults.Len())); err != nil {
					t.Fatal(err)
				}
				p = NewPlannerFrom(p, snap)
				check(fmt.Sprintf("%s successor %d", what, batch), p, pairSet(m, seed+int64(batch), 200))
			}
		}
	}

	m := grid.New(16, 16)
	check("pinched ring", NewPlannerForBlocked(m, pinchedRegion(m)), allPairs(m))
	check("border wall", NewPlannerForBlocked(m, borderWall(m)), allPairs(m))
	livelock := NewPlannerForBlocked(m, livelockShape(m))
	check("livelock", livelock, allPairs(m))
	if _, _, err := livelock.measure(grid.XY(0, 6), grid.XY(10, 0)); err != ErrHopBudget {
		t.Fatalf("livelock fixture: %v, want the hop budget", err)
	}

	route2d := grid.New(256, 256)
	faults := fault.InjectWithMargin(route2d, fault.Clustered, 1, 1300, 8)
	e, err := engine.New(route2d)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Load(faults)
	if err != nil {
		t.Fatal(err)
	}
	check("route2d scale", NewPlanner(snap), pairSet(route2d, 1, 2000))

	if detoured < 1000 || failed < 1000 {
		t.Fatalf("fixture too easy: %d detoured and %d failed queries", detoured, failed)
	}
	t.Logf("%d detoured, %d failed queries", detoured, failed)
}
