package polygon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// blob is a quick.Generator producing random 8-connected-ish regions on a
// fixed 18x18 mesh, so testing/quick can drive the geometric properties.
type blob struct{ s *nodeset.Set }

func (blob) Generate(rng *rand.Rand, size int) reflect.Value {
	m := grid.New(18, 18)
	s := nodeset.New(m)
	c := grid.XY(9, 9)
	s.Add(c)
	steps := 5 + rng.Intn(size+10)
	for i := 0; i < steps; i++ {
		c = grid.XY(c.X+rng.Intn(3)-1, c.Y+rng.Intn(3)-1)
		if !m.Contains(c) {
			c = grid.XY(9, 9)
		}
		s.Add(c)
	}
	return reflect.ValueOf(blob{s})
}

// Closure is idempotent: closing a closure changes nothing.
func TestQuickClosureIdempotent(t *testing.T) {
	f := func(b blob) bool {
		cl, _ := kernel.Closure(b.s)
		cl2, passes := kernel.Closure(cl)
		return passes == 0 && cl2.Equal(cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Closure is monotone: a superset's closure contains the subset's closure.
func TestQuickClosureMonotone(t *testing.T) {
	f := func(a, b blob) bool {
		super := nodeset.Union(a.s, b.s)
		clA, _ := kernel.Closure(a.s)
		clSuper, _ := kernel.Closure(super)
		return clSuper.ContainsAll(clA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// A region is orthogonal convex exactly when it has no concave sections.
func TestQuickConvexityIffNoSections(t *testing.T) {
	f := func(b blob) bool {
		convex := kernel.IsOrthoConvex(b.s)
		sections := len(ConcaveRowSections(b.s)) + len(ConcaveColumnSections(b.s))
		return convex == (sections == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Filling never shrinks a region and stays inside the bounding box.
func TestQuickFillBounded(t *testing.T) {
	f := func(b blob) bool {
		filled := kernel.FillOnce(b.s)
		if !filled.ContainsAll(b.s) {
			return false
		}
		bounds := nodeset.Bounds(b.s)
		ok := true
		filled.Each(func(c grid.Coord) {
			if !bounds.Contains(c) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// kernel.Regions partitions any set and every region's closure is convex.
func TestQuickRegionsClosureConvex(t *testing.T) {
	f := func(b blob) bool {
		for _, r := range kernel.Regions(b.s) {
			cl, _ := kernel.Closure(r)
			if !kernel.IsOrthoConvex(cl) || !cl.ContainsAll(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
