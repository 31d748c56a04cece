package shard

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/routing"
)

// TestPlannerMemoizedPerVersion: queries at one shard version share a
// single planner; an event batch moves the version and invalidates it.
func TestPlannerMemoizedPerVersion(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("a", grid.New(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(5, 5), add(6, 5), add(5, 6)}); err != nil {
		t.Fatal(err)
	}

	p1, v1, hit, err := s.Planner()
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first query cannot be a cache hit")
	}
	p2, v2, hit, err := s.Planner()
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p2 != p1 || v2.Version != v1.Version {
		t.Fatalf("same-version query must share the planner (hit=%v, same=%v)", hit, p2 == p1)
	}

	// Routes come from the live snapshot: the fault cluster detours.
	r, err := p1.Route(grid.XY(0, 5), grid.XY(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.AbnormalHops == 0 {
		t.Fatal("route across the fault cluster must take abnormal hops")
	}

	// Churn invalidates: a state-changing batch moves the version.
	if _, err := s.Apply([]engine.Event{add(10, 10)}); err != nil {
		t.Fatal(err)
	}
	p3, v3, hit, err := s.Planner()
	if err != nil {
		t.Fatal(err)
	}
	if hit || p3 == p1 || v3.Version == v1.Version {
		t.Fatal("post-churn query must rebuild the planner")
	}

	st := s.Stats()
	if st.RouteQueries != 3 || st.RouteCacheHits != 1 || st.PlannerBuilds != 2 {
		t.Fatalf("route stats = %d queries / %d hits / %d builds, want 3/1/2",
			st.RouteQueries, st.RouteCacheHits, st.PlannerBuilds)
	}
}

// TestPlannerConcurrentQueriesShareBuild: concurrent first queries at the
// same version produce exactly one planner build between them.
func TestPlannerConcurrentQueriesShareBuild(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("a", grid.New(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(8, 8), add(9, 9), add(12, 4)}); err != nil {
		t.Fatal(err)
	}

	const n = 16
	planners := make([]*routing.Planner, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, _, err := s.Planner()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := p.Route(grid.XY(0, 8), grid.XY(23, 8)); err != nil {
				t.Error(err)
			}
			planners[i] = p
		}(i)
	}
	wg.Wait()
	if st := s.Stats(); st.PlannerBuilds != 1 {
		t.Fatalf("planner builds = %d, want 1 (queries %d, hits %d)",
			st.PlannerBuilds, st.RouteQueries, st.RouteCacheHits)
	}
	for i := 1; i < n; i++ {
		if planners[i] != planners[0] {
			t.Fatal("concurrent queries must share one planner")
		}
	}
}

// TestPlannerRebuiltAfterEviction: eviction drops the memoized planner
// with the engine; the next query rebuilds it at the same shard version
// and routes identically.
func TestPlannerRebuiltAfterEviction(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	defer m.Close()
	mesh := grid.New(16, 16)
	a, err := m.Create("a", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply([]engine.Event{add(5, 5), add(6, 6)}); err != nil {
		t.Fatal(err)
	}
	pBefore, vBefore, _, err := a.Planner()
	if err != nil {
		t.Fatal(err)
	}
	rBefore, err := pBefore.Route(grid.XY(0, 5), grid.XY(15, 5))
	if err != nil {
		t.Fatal(err)
	}

	b, err := m.Create("b", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return !a.Stats().Resident })

	pAfter, vAfter, hit, err := a.Planner()
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("post-eviction query cannot hit the dropped planner")
	}
	if vAfter.Version != vBefore.Version {
		t.Fatalf("version changed across eviction: %d -> %d", vBefore.Version, vAfter.Version)
	}
	rAfter, err := pAfter.Route(grid.XY(0, 5), grid.XY(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rAfter.Length() != rBefore.Length() || rAfter.AbnormalHops != rBefore.AbnormalHops {
		t.Fatal("rebuilt planner routes differently")
	}
}

// TestPlannerBuiltFromMemoized: the miss after an event batch builds the
// new version's planner from the memoized one, keeping the regions the
// batch did not touch, and the result is the planner a from-scratch build
// of the same snapshot gives.
func TestPlannerBuiltFromMemoized(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("a", grid.New(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(3, 3), add(4, 4), add(12, 12), add(18, 5)}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Planner(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(13, 13)}); err != nil {
		t.Fatal(err)
	}
	reused := func() float64 { v, _ := obs.Default.Value("routing_planner_regions_reused_total"); return v }
	before := reused()
	p, v, hit, err := s.Planner()
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("post-churn query cannot be a cache hit")
	}
	if got := reused() - before; got != 2 {
		t.Fatalf("the successor reused %g regions, want the 2 the batch did not touch", got)
	}
	queries := []routing.Query{
		{Src: grid.XY(0, 4), Dst: grid.XY(23, 4)},
		{Src: grid.XY(0, 12), Dst: grid.XY(23, 13)},
		{Src: grid.XY(18, 0), Dst: grid.XY(18, 23)},
	}
	if err := p.Verify(routing.NewPlanner(v.Snapshot), queries); err != nil {
		t.Fatal(err)
	}
}
