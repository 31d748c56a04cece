// Package mfp3d extends the paper's construction to 3-D meshes — its
// stated future work ("our future work will focus on extending the
// proposed method to higher dimension meshes"). Since the refactor that
// introduced internal/kernel, the geometry is not a copy of the 2-D code
// any more: the component merge and the orthogonal convex closure are the
// kernel's dimension-generic implementations instantiated at grid3.Mesh,
// and this package only keeps the 3-D vocabulary (polytopes, cuboids) and
// the batch Result shape. The generalization is constructive and
// centralized:
//
//   - faulty components merge under 26-adjacency (the 3-D analogue of
//     Definition 2);
//   - a region is orthogonal convex when every axis-parallel line meets it
//     in a contiguous segment (Definition 1 with X, Y and Z lines);
//   - the minimum faulty polytope of a component is its orthogonal convex
//     closure, obtained by filling the axis-line gaps to a fixpoint. Unlike
//     in 2-D, one pass per axis is not always enough: fills along one axis
//     can open gaps along another, so the closure iterates (see the tests
//     for a minimal cascading example);
//   - the 3-D faulty block analogue is the bounding cuboid of a component.
//
// Minimality holds by the same argument as in 2-D: any orthogonal convex
// superset of a component must contain every fill pass, hence the closure
// is the unique minimum orthogonal convex polytope covering the component.
//
// For the same construction maintained incrementally under fault churn —
// and served over HTTP by mfpd — see internal/engine3.
package mfp3d

import (
	"fmt"
	"math/rand"

	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/nodeset3"
	"repro/internal/status"
)

// RasterizeBox ORs every node of the box into dst and returns the number
// of rows (contiguous X runs in the row-major index space) it touched. A
// cuboid is a stack of such runs, so it fills with whole-word ORs
// (Set.FillRange) instead of per-node adds — the shared rasterizer of the
// batch Build and internal/engine3's incremental cuboid block model. The
// box must lie inside the mesh, which must not be a torus (row-major X
// contiguity is what makes the runs whole-word).
func RasterizeBox(dst *nodeset3.Set, b grid3.Box) int {
	if b.Empty() {
		return 0
	}
	m := dst.Mesh()
	w := b.Max.X - b.Min.X + 1
	rows := 0
	for z := b.Min.Z; z <= b.Max.Z; z++ {
		base := m.Index(grid3.XYZ(b.Min.X, b.Min.Y, z))
		for y := b.Min.Y; y <= b.Max.Y; y++ {
			dst.FillRange(base, base+w)
			base += m.W
			rows++
		}
	}
	return rows
}

// ClearBox removes every node of the box from dst and returns the number
// of rows it touched — RasterizeBox's counterpart (Set.ClearRange per
// row), used when a shrunk component's cuboid must be re-rasterized.
func ClearBox(dst *nodeset3.Set, b grid3.Box) int {
	if b.Empty() {
		return 0
	}
	m := dst.Mesh()
	w := b.Max.X - b.Min.X + 1
	rows := 0
	for z := b.Min.Z; z <= b.Max.Z; z++ {
		base := m.Index(grid3.XYZ(b.Min.X, b.Min.Y, z))
		for y := b.Min.Y; y <= b.Max.Y; y++ {
			dst.ClearRange(base, base+w)
			base += m.W
			rows++
		}
	}
	return rows
}

// Result holds the 3-D construction: per-component minimum polytopes and,
// for comparison, the cuboid (3-D faulty block) model.
type Result struct {
	Mesh       grid3.Mesh
	Faults     *nodeset3.Set
	Components []*nodeset3.Set
	// Polytopes[i] is the minimum orthogonal convex polytope of
	// Components[i].
	Polytopes []*nodeset3.Set
	// Cuboids[i] is the bounding cuboid of Components[i], the 3-D faulty
	// block analogue.
	Cuboids []grid3.Box
	// DisabledPolytope and DisabledCuboid are the disabled-node sets
	// (faults included) under the two models.
	DisabledPolytope, DisabledCuboid *nodeset3.Set
}

// Build constructs the 3-D minimum faulty polytopes and the cuboid
// baseline for a fault set.
func Build(m grid3.Mesh, faults *nodeset3.Set) *Result {
	if faults.Mesh() != m {
		panic("mfp3d: fault set is over a different mesh")
	}
	if m.Torus {
		panic("mfp3d: the 3-D construction supports non-torus meshes")
	}
	res := &Result{
		Mesh:             m,
		Faults:           faults.Clone(),
		Components:       kernel.Regions(faults),
		DisabledPolytope: nodeset3.New(m),
		DisabledCuboid:   nodeset3.New(m),
	}
	for _, c := range res.Components {
		poly, _ := kernel.Closure(c)
		res.Polytopes = append(res.Polytopes, poly)
		res.DisabledPolytope.UnionWith(poly)
		box := nodeset3.Bounds(c)
		res.Cuboids = append(res.Cuboids, box)
		RasterizeBox(res.DisabledCuboid, box)
	}
	return res
}

// Reference runs Build on faults and adapts the result to the shape
// kernel.Snapshot.Verify compares an engine's snapshot against: the
// polytopes, their disabled union and the cuboid unsafe set, which
// classify a node like the 2-D models do.
func Reference(faults *nodeset3.Set) kernel.Reference[grid3.Coord, grid3.Mesh] {
	r := Build(faults.Mesh(), faults)
	return kernel.Reference[grid3.Coord, grid3.Mesh]{
		Faults:     r.Faults,
		Components: r.Components,
		Polygons:   r.Polytopes,
		Disabled:   r.DisabledPolytope,
		Unsafe:     r.DisabledCuboid,
		Class: func(n grid3.Coord) status.Class {
			return status.Classify(r.Faults.Has(n), r.DisabledPolytope.Has(n), r.DisabledCuboid.Has(n))
		},
	}
}

// PolytopeDisabledNonFaulty returns the number of non-faulty nodes the
// minimum polytopes disable.
func (r *Result) PolytopeDisabledNonFaulty() int {
	return r.DisabledPolytope.Len() - r.Faults.Len()
}

// CuboidDisabledNonFaulty returns the number of non-faulty nodes the
// cuboid (3-D block) model disables.
func (r *Result) CuboidDisabledNonFaulty() int {
	return r.DisabledCuboid.Len() - r.Faults.Len()
}

// Validate checks the construction's invariants: each polytope is the
// orthogonal convex closure of its component (convex, covering, inside the
// bounding cuboid), and the disabled sets are the respective unions.
func (r *Result) Validate() error {
	polyUnion := nodeset3.New(r.Mesh)
	for i, p := range r.Polytopes {
		c := r.Components[i]
		if !p.ContainsAll(c) {
			return fmt.Errorf("mfp3d: polytope %d misses component nodes", i)
		}
		if !kernel.IsOrthoConvex(p) {
			return fmt.Errorf("mfp3d: polytope %d is not orthogonal convex", i)
		}
		inBox := true
		p.Each(func(cc grid3.Coord) {
			if !r.Cuboids[i].Contains(cc) {
				inBox = false
			}
		})
		if !inBox {
			return fmt.Errorf("mfp3d: polytope %d leaks outside its cuboid", i)
		}
		polyUnion.UnionWith(p)
	}
	if !polyUnion.Equal(r.DisabledPolytope) {
		return fmt.Errorf("mfp3d: disabled set is not the union of polytopes")
	}
	if !r.DisabledCuboid.ContainsAll(r.DisabledPolytope) {
		return fmt.Errorf("mfp3d: polytope model not inside the cuboid model")
	}
	return nil
}

// RandomFaults injects n distinct uniformly random faults, the 3-D
// counterpart of the paper's random fault distribution model.
func RandomFaults(m grid3.Mesh, n int, seed int64) *nodeset3.Set {
	if n < 0 || n > m.Size() {
		panic(fmt.Sprintf("mfp3d: cannot inject %d faults into %v", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int, m.Size())
	for i := range idx {
		idx[i] = i
	}
	out := nodeset3.New(m)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out.Add(m.CoordAt(idx[i]))
	}
	return out
}

// ClusteredFaults injects n faults where nodes 26-adjacent to an existing
// fault fail at twice the base rate, the 3-D counterpart of the clustered
// fault distribution model.
func ClusteredFaults(m grid3.Mesh, n int, seed int64) *nodeset3.Set {
	if n < 0 || n > m.Size() {
		panic(fmt.Sprintf("mfp3d: cannot inject %d faults into %v", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	out := nodeset3.New(m)
	boosted := make([]bool, m.Size())
	var buf []grid3.Coord
	for out.Len() < n {
		i := rng.Intn(m.Size())
		c := m.CoordAt(i)
		if out.Has(c) {
			continue
		}
		if !boosted[i] && rng.Intn(2) == 0 {
			continue
		}
		out.Add(c)
		buf = m.Neighbors26(c, buf[:0])
		for _, nb := range buf {
			boosted[m.Index(nb)] = true
		}
	}
	return out
}
