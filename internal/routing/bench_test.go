package routing

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/mfp"
	"repro/internal/nodeset"
)

func benchPlanner(b *testing.B) *Planner {
	b.Helper()
	m := grid.New(64, 64)
	inner := fault.NewInjector(grid.New(56, 56), fault.Clustered, 1).Inject(120)
	faults := nodeset.New(m)
	inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+4, c.Y+4)) })
	return NewPlannerForBlocked(m, mfp.Build(m, faults).Disabled)
}

func BenchmarkRouteAcrossFaultyMesh(b *testing.B) {
	n := benchPlanner(b)
	m := n.Mesh()
	rng := rand.New(rand.NewSource(9))
	type pair struct{ s, d grid.Coord }
	var pairs []pair
	for len(pairs) < 256 {
		s := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		d := grid.XY(rng.Intn(m.W), rng.Intn(m.H))
		if s != d && !n.Blocked(s) && !n.Blocked(d) {
			pairs = append(pairs, pair{s, d})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := n.Route(p.s, p.d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewPlannerForBlocked(b *testing.B) {
	m := grid.New(64, 64)
	inner := fault.NewInjector(grid.New(56, 56), fault.Clustered, 1).Inject(120)
	faults := nodeset.New(m)
	inner.Each(func(c grid.Coord) { faults.Add(grid.XY(c.X+4, c.Y+4)) })
	blocked := mfp.Build(m, faults).Disabled
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewPlannerForBlocked(m, blocked)
	}
}
