package routing

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/nodeset"
)

// checkMeasure asserts that Measure agrees with Route on every query: the
// same length, abnormal hop count and error text, and the same
// routing_routes_total outcome.
func checkMeasure(t *testing.T, what string, p *Planner, queries []Query) {
	t.Helper()
	for _, q := range queries {
		route, rerr := p.Route(q.Src, q.Dst)
		counter := routeOutcome(rerr)
		before := counter.Value()
		length, abnormal, merr := p.Measure(q.Src, q.Dst)
		if fmt.Sprint(merr) != fmt.Sprint(rerr) {
			t.Fatalf("%s: %v -> %v: Measure error %v, Route error %v", what, q.Src, q.Dst, merr, rerr)
		}
		if counter.Value() != before+1 {
			t.Fatalf("%s: %v -> %v: Measure did not count one %v outcome", what, q.Src, q.Dst, rerr)
		}
		if rerr != nil {
			if length != 0 || abnormal != 0 {
				t.Fatalf("%s: %v -> %v: failed Measure returned %d/%d hops", what, q.Src, q.Dst, length, abnormal)
			}
			continue
		}
		if length != route.Length() || abnormal != route.AbnormalHops {
			t.Fatalf("%s: %v -> %v: Measure %d hops (%d abnormal), Route %d (%d)",
				what, q.Src, q.Dst, length, abnormal, route.Length(), route.AbnormalHops)
		}
	}
}

// allPairs returns every source/destination pair of a small mesh.
func allPairs(m grid.Mesh) []Query {
	var qs []Query
	for s := 0; s < m.Size(); s++ {
		for d := 0; d < m.Size(); d++ {
			qs = append(qs, Query{Src: m.CoordAt(s), Dst: m.CoordAt(d)})
		}
	}
	return qs
}

// TestMeasureMatchesRoute pins the count-only walk to the recording one on
// random planners (from snapshots and from re-floods), the pinched ring,
// touching polygons merged into one region, and every error kind.
func TestMeasureMatchesRoute(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := grid.New(24+int(seed)*4, 20+int(seed)*3)
		faults := fault.NewInjector(m, fault.Clustered, seed).Inject(m.Size() / 12)
		snap := snapshotFor(t, m, faults)
		queries := pairSet(m, seed, 400)
		checkMeasure(t, fmt.Sprintf("snapshot seed %d", seed), NewPlanner(snap), queries)
		checkMeasure(t, fmt.Sprintf("re-flood seed %d", seed), NewPlannerForBlocked(m, snap.Disabled()), queries)
	}

	m := grid.New(16, 16)
	checkMeasure(t, "pinched ring", NewPlannerForBlocked(m, pinchedRegion(m)), allPairs(m))

	merged := nodeset.FromCoords(grid.New(12, 12),
		grid.XY(2, 2), grid.XY(3, 3), grid.XY(3, 4), grid.XY(3, 5), grid.XY(2, 6), grid.XY(1, 4))
	p := NewPlanner(snapshotFor(t, merged.Mesh(), merged))
	if len(p.Regions()) != 1 || len(p.polys) != 2 {
		t.Fatalf("merge fixture: %d regions of %d polygons, want 1 of 2", len(p.Regions()), len(p.polys))
	}
	checkMeasure(t, "merged region", p, allPairs(merged.Mesh()))

	errs := []struct {
		name    string
		blocked *nodeset.Set
		q       Query
	}{
		{"blocked endpoint", nodeset.FromCoords(m, grid.XY(5, 5)), Query{grid.XY(5, 5), grid.XY(0, 0)}},
		{"border region", borderWall(m), Query{grid.XY(2, 2), grid.XY(14, 2)}},
		{"hop budget", livelockShape(m), Query{grid.XY(0, 6), grid.XY(10, 0)}},
		{"outside mesh", nodeset.New(m), Query{grid.XY(-1, 0), grid.XY(3, 3)}},
	}
	for _, e := range errs {
		p := NewPlannerForBlocked(m, e.blocked)
		if _, err := p.Route(e.q.Src, e.q.Dst); err == nil {
			t.Fatalf("%s: fixture routes without error", e.name)
		}
		checkMeasure(t, e.name, p, []Query{e.q})
	}
}

// TestMeasureAllocs: Measure allocates nothing, and Route allocates the
// route and one hop slice sized for it up front.
func TestMeasureAllocs(t *testing.T) {
	m := grid.New(40, 40)
	inner := fault.NewInjector(grid.New(30, 30), fault.Clustered, 3).Inject(90)
	faults := nodeset.New(m)
	inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+5, c.Y+5)) })
	p := NewPlanner(snapshotFor(t, m, faults))
	var detoured []Query
	for _, q := range pairSet(m, 11, 400) {
		if _, abnormal, err := p.Measure(q.Src, q.Dst); err == nil && abnormal > 0 {
			detoured = append(detoured, q)
		}
	}
	if len(detoured) < 10 {
		t.Fatalf("only %d detouring routes in the fixture", len(detoured))
	}
	for _, q := range detoured {
		if n := testing.AllocsPerRun(20, func() { p.Measure(q.Src, q.Dst) }); n != 0 {
			t.Fatalf("Measure %v -> %v: %.1f allocs, want 0", q.Src, q.Dst, n)
		}
		if n := testing.AllocsPerRun(20, func() { p.Route(q.Src, q.Dst) }); n > 2 {
			t.Fatalf("Route %v -> %v: %.1f allocs, want at most 2", q.Src, q.Dst, n)
		}
	}
}
