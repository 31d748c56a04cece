package kernel

// Scratch is the reusable working memory of the geometry kernels: flood
// bookkeeping for Regions, per-line span tables for FillOnce/Closure, and
// a free list of sets recycled across calls. The engine threads one
// Scratch through every event application so the steady-state apply path
// stops generating per-event garbage; standalone callers can pass nil
// scratch (the package-level Regions/Closure/FillOnce do) and get fresh
// allocations with identical results.
//
// A Scratch is bound to one topology and is not safe for concurrent use.
// Slices returned by its methods (the region list of Regions) are valid
// only until the next call on the same Scratch.
type Scratch[C any, T Topology[C]] struct {
	topo T

	// Flood state for Regions/LinkRegions.
	seenWords []uint64
	stack     []int
	regions   []*Set[C, T]

	// Per-axis line-span tables for FillOnce/Closure/IsOrthoConvex. spans
	// is grown to the largest line count seen and kept zeroed between
	// calls by resetting exactly the keys touched (spanKeys); sparse is
	// the cleared-and-reused fallback for pathologically small regions on
	// huge meshes.
	spans    []lineSpan
	spanKeys []int
	sparse   map[int]lineSpan

	// Recycled sets. take returns a cleared set; put caps the free list
	// so a pathological burst cannot pin memory forever.
	pool []*Set[C, T]
}

// maxPooledSets bounds the Scratch free list. Steady-state churn needs a
// few dozen sets in flight per batch; anything beyond this is a burst not
// worth keeping.
const maxPooledSets = 64

// NewScratch returns an empty Scratch over the given topology.
func NewScratch[C any, T Topology[C]](t T) *Scratch[C, T] {
	return &Scratch[C, T]{topo: t}
}

// take returns a cleared set over the scratch's topology, recycled from
// the free list when possible. A nil scratch degrades to NewSet.
func (scr *Scratch[C, T]) take(t T) *Set[C, T] {
	if scr == nil {
		return NewSet[C](t)
	}
	if n := len(scr.pool); n > 0 {
		s := scr.pool[n-1]
		scr.pool[n-1] = nil
		scr.pool = scr.pool[:n-1]
		s.Clear()
		return s
	}
	return NewSet[C](scr.topo)
}

// put returns a dead set to the free list. Callers must guarantee nothing
// else aliases it (published snapshot sets never come back here). A nil
// scratch discards the set.
func (scr *Scratch[C, T]) put(s *Set[C, T]) {
	if scr == nil || s == nil {
		return
	}
	if len(scr.pool) < maxPooledSets {
		scr.pool = append(scr.pool, s)
	}
}

// recycle returns a zeroed backing array left behind by Set.trim to the
// free list as an empty set. A nil scratch or array is a no-op.
func (scr *Scratch[C, T]) recycle(buf []uint64) {
	if scr != nil && buf != nil && len(scr.pool) < maxPooledSets {
		scr.pool = append(scr.pool, &Set[C, T]{topo: scr.topo, buf: buf, words: buf[:0]})
	}
}

func (scr *Scratch[C, T]) check(s *Set[C, T]) {
	if scr != nil && scr.topo != s.topo {
		panic("kernel: scratch over a different mesh")
	}
}

// Regions is the scratch-reusing form of the package-level Regions: same
// result, but the seen bitmap, work stack and region sets come from the
// scratch. The returned slice is valid until the next call on scr.
func (scr *Scratch[C, T]) Regions(s *Set[C, T]) []*Set[C, T] {
	scr.check(s)
	return regionsWith(s, scr, true)
}

// LinkRegions is the scratch-reusing form of the package-level
// LinkRegions. The returned slice is valid until the next call on scr.
func (scr *Scratch[C, T]) LinkRegions(s *Set[C, T]) []*Set[C, T] {
	scr.check(s)
	return regionsWith(s, scr, false)
}

// Closure is the scratch-reusing form of the package-level Closure, with
// one deliberate difference: when the region is already orthogonal convex
// the input set itself is returned (passes 0) instead of a fresh copy, so
// the engine can share one set between a component and its polygon.
func (scr *Scratch[C, T]) Closure(s *Set[C, T]) (*Set[C, T], int) {
	scr.check(s)
	return closureInto(s, scr)
}

// FillOnce is the scratch-reusing form of the package-level FillOnce. The
// returned set is always fresh from the scratch's free list.
func (scr *Scratch[C, T]) FillOnce(s *Set[C, T]) *Set[C, T] {
	scr.check(s)
	out := scr.take(s.Mesh())
	out.CopyFrom(s)
	fillOnceInto(s, out, scr)
	return out
}
