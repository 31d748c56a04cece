package mfp3d

import (
	"testing"

	"repro/internal/grid3"
	"repro/internal/kernel"
)

func BenchmarkBuildClustered400(b *testing.B) {
	m := grid3.New(30, 30, 30)
	faults := ClusteredFaults(m, 400, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(m, faults)
	}
}

func BenchmarkClosureBlob(b *testing.B) {
	m := grid3.New(20, 20, 20)
	faults := ClusteredFaults(m, 120, 2)
	comps := kernel.Regions(faults)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			kernel.Closure(c)
		}
	}
}
