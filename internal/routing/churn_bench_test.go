package routing_test

import (
	"testing"

	"repro/internal/experiments"
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
