package wormhole

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/mfp"
	"repro/internal/nodeset"
	"repro/internal/routing"
)

// TestDeadlockAroundPolygon is a witness that the four-virtual-channel
// scheme is not deadlock-free around minimum faulty polygons: five extended
// e-cube routes around the polygon of a 4-fault L, injected together,
// deadlock. The L's notch also shows a detour that reverses: (5,2)->(3,3)
// walks 11 hops for a Manhattan distance of 3, round the L and then east,
// still EW-bound, into the notch.
func TestDeadlockAroundPolygon(t *testing.T) {
	m := grid.New(7, 7)
	faults := nodeset.New(m)
	for _, c := range []grid.Coord{grid.XY(2, 2), grid.XY(3, 2), grid.XY(4, 2), grid.XY(2, 3)} {
		faults.Add(c)
	}
	planner := routing.NewPlannerForBlocked(m, mfp.Build(m, faults).Disabled)

	src, dst := grid.XY(5, 2), grid.XY(3, 3)
	r, err := planner.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() != 11 || m.Dist(src, dst) != 3 {
		t.Fatalf("%v->%v: %d hops for Manhattan distance %d, want 11 for 3", src, dst, r.Length(), m.Dist(src, dst))
	}

	pairs := [][2]grid.Coord{
		{grid.XY(4, 0), grid.XY(4, 4)},
		{grid.XY(5, 3), grid.XY(4, 1)},
		{grid.XY(5, 3), grid.XY(1, 5)},
		{grid.XY(0, 0), grid.XY(3, 5)},
		{grid.XY(5, 2), grid.XY(4, 6)},
	}
	s := New(Config{FlitLen: 8})
	for id, p := range pairs {
		r, err := planner.Route(p[0], p[1])
		if err != nil {
			t.Fatalf("%v->%v: %v", p[0], p[1], err)
		}
		s.InjectRoute(id, r, 0)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlock() || len(res.Deadlocked) != 2 || res.Deadlocked[0] != 2 || res.Deadlocked[1] != 4 || res.Completed != 3 {
		t.Fatalf("deadlocked %v with %d completed, want worms [2 4] stuck and 3 completed", res.Deadlocked, res.Completed)
	}
}
