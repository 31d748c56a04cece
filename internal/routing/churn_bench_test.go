package routing_test

import (
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/routing"
)

// BenchmarkNewPlanner times a from-scratch planner build at e2ebench's
// route2d scale (experiments.PlannerChurn): a planner memo miss with no
// predecessor.
func BenchmarkNewPlanner(b *testing.B) {
	base, _, err := experiments.PlannerChurn()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.NewPlanner(base)
	}
}

// BenchmarkPlannerNext times the successor build after a one-event batch
// at the same scale: a planner memo miss after churn.
func BenchmarkPlannerNext(b *testing.B) {
	base, next, err := experiments.PlannerChurn()
	if err != nil {
		b.Fatal(err)
	}
	prev := routing.NewPlanner(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.NewPlannerFrom(prev, next)
	}
}

// BenchmarkMeasure times one 64-pair batch of count-only routes at the
// same scale, the walk behind a batched /route reply: endpoints drawn
// inside the fault margin, as e2ebench's route2d workload draws them.
func BenchmarkMeasure(b *testing.B) {
	base, _, err := experiments.PlannerChurn()
	if err != nil {
		b.Fatal(err)
	}
	p := routing.NewPlanner(base)
	m := p.Mesh()
	rng := rand.New(rand.NewSource(1))
	span := func(n int) int { return 8 + rng.Intn(n-16) }
	queries := make([]routing.Query, 64)
	for i := range queries {
		queries[i] = routing.Query{Src: grid.XY(span(m.W), span(m.H)), Dst: grid.XY(span(m.W), span(m.H))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			p.Measure(q.Src, q.Dst)
		}
	}
}
