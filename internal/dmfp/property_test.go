package dmfp

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/mfp"
)

// Property sweep: the distributed construction equals the centralized one
// across fault densities from sparse to nearly percolating, under both
// distribution models. Dense instances produce snaky components with
// interleaved cavities, the regime that defeats fixed-depth boundary
// records.
func TestPropertyEquivalenceAcrossDensities(t *testing.T) {
	if testing.Short() {
		t.Skip("density sweep is a long property test")
	}
	for _, model := range []fault.Model{fault.Random, fault.Clustered} {
		for seed := int64(0); seed < 25; seed++ {
			for _, frac := range []float64{0.02, 0.1, 0.25, 0.4} {
				m := grid.New(25, 25)
				n := int(frac * float64(m.Size()))
				faults := fault.NewInjector(m, model, seed).Inject(n)
				dist := Build(m, faults)
				cent := mfp.Build(m, faults)
				if !dist.Disabled.Equal(cent.Disabled) {
					t.Fatalf("%v seed %d frac %v: distributed differs from centralized",
						model, seed, frac)
				}
				if err := dist.Validate(); err != nil {
					t.Fatalf("%v seed %d frac %v: %v", model, seed, frac, err)
				}
			}
		}
	}
}

// Ring walks must be closed cycles of 8-adjacent steps covering every
// boundary node of the component.
func TestPropertyRingWalkStructure(t *testing.T) {
	m := grid.New(20, 20)
	for seed := int64(0); seed < 30; seed++ {
		faults := fault.NewInjector(m, fault.Clustered, seed).Inject(40)
		for _, comp := range mfp.Build(m, faults).Components {
			walk := outerRing(comp.Nodes)
			if len(walk) == 0 {
				t.Fatal("empty ring for a non-empty component")
			}
			for i, c := range walk {
				next := walk[(i+1)%len(walk)]
				dx, dy := next.X-c.X, next.Y-c.Y
				if dx < -1 || dx > 1 || dy < -1 || dy > 1 || (dx == 0 && dy == 0) {
					t.Fatalf("seed %d: walk step %v -> %v is not one hop", seed, c, next)
				}
				if comp.Nodes.Has(c) {
					t.Fatalf("seed %d: ring enters the component at %v", seed, c)
				}
			}
			// Every node 4-adjacent to the component (a boundary node able
			// to end a section) must be on the walk or inside a hole.
			onWalk := map[grid.Coord]bool{}
			for _, c := range walk {
				onWalk[c] = true
			}
			holeCells := map[grid.Coord]bool{}
			for _, h := range holes(m, comp.Nodes) {
				h.Each(func(c grid.Coord) { holeCells[c] = true })
			}
			comp.Nodes.Each(func(c grid.Coord) {
				for _, nb := range m.Neighbors4(c, nil) {
					if comp.Nodes.Has(nb) {
						continue
					}
					if !onWalk[nb] && !holeCells[nb] {
						t.Fatalf("seed %d: boundary node %v missing from ring and holes", seed, nb)
					}
				}
			})
		}
	}
}

// The disabled region of every component must stay within its orthogonal
// convex closure even before comparing exact equality — fired sections can
// merge but never leak.
func TestPropertySectionsStayWithinClosure(t *testing.T) {
	m := grid.New(30, 30)
	for seed := int64(0); seed < 20; seed++ {
		faults := fault.NewInjector(m, fault.Random, seed).Inject(150)
		res := Build(m, faults)
		for i, comp := range res.Components {
			cl, _ := kernel.Closure(comp.Nodes)
			if !cl.ContainsAll(res.Polygons[i]) {
				t.Fatalf("seed %d: polygon %d leaks outside its closure", seed, i)
			}
		}
	}
}
