package polygon

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

func randomBlob(seed int64, steps int) *nodeset.Set {
	m := grid.New(64, 64)
	rng := rand.New(rand.NewSource(seed))
	s := nodeset.New(m)
	c := grid.XY(32, 32)
	s.Add(c)
	for i := 0; i < steps; i++ {
		c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
		if !m.Contains(c) {
			c = grid.XY(32, 32)
		}
		s.Add(c)
	}
	return s
}

func BenchmarkClosure(b *testing.B) {
	blob := randomBlob(1, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.Closure(blob)
	}
}

func BenchmarkIsOrthoConvex(b *testing.B) {
	cl, _ := kernel.Closure(randomBlob(1, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.IsOrthoConvex(cl)
	}
}

func BenchmarkOuterRing(b *testing.B) {
	blob := randomBlob(2, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OuterRing(blob)
	}
}

func BenchmarkRegions8(b *testing.B) {
	m := grid.New(100, 100)
	rng := rand.New(rand.NewSource(3))
	s := nodeset.New(m)
	for i := 0; i < 800; i++ {
		s.Add(grid.XY(rng.Intn(100), rng.Intn(100)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel.Regions(s)
	}
}
