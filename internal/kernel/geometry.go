package kernel

import "math/bits"

// This file expresses the paper's orthogonal-convex-region geometry once
// for any dimension: a region is orthogonal convex when every axis-parallel
// line meets it in a contiguous segment (Definition 1, with one line family
// per axis), and the minimum orthogonal convex polygon/polytope of a region
// is its closure under filling the per-line gaps.
//
// The hot loops are word-parallel. Topology.AxisStride pins the dense
// index to a row-major mixed-radix layout, which turns every per-node
// coordinate walk into integer arithmetic on indices: for axis a with
// index stride st and length L, the node i lies on the line with key
//
//	key(i) = (i / (st*L)) * st  +  i % st        (a value in [0, Size/L))
//
// at position (i / st) % L, and the line's own indices are base + v*st
// for base = (key/st)*(st*L) + key%st. On the contiguous axis (st == 1)
// a whole line is one dense index range, so span extraction and gap
// filling run on whole 64-bit words (Set.SpanOfRange, Set.FillRange)
// instead of bit by bit.

// sparseLines reports whether the per-line bookkeeping of one axis should
// use a map over occupied lines instead of dense arrays over every line of
// the mesh. Dense arrays win for the common case (a component on a mesh
// whose cross-section is comparable to the region size), but a small
// region on a large mesh — a 2-node component on a 2048×2048×4 mesh has
// 4.2M Z-lines — must not allocate and scan the whole cross-section per
// closure pass.
func sparseLines(lines, regionLen int) bool { return lines > 2*regionLen+16 }

// maxDenseLines is the line count up to which a Scratch keeps a dense span
// table even for regions sparseLines would send to a map: the table is
// allocated once and reset by touched keys, so a dense array beats a map
// whenever it fits comfortably in scratch memory (64Ki lines = 1.5MiB).
const maxDenseLines = 1 << 16

// lineSpan is the occupancy of one axis line: the extremes and the node
// count on the line.
type lineSpan struct{ lo, hi, count int }

// lineSpans collects per-line occupancy for one axis. Exactly one of
// dense and sparse is non-nil. In scratch mode (scr != nil, dense table)
// keys lists the touched line keys and the caller MUST zero dense[k] for
// every k in keys before the next lineSpans call (the fill loops do this
// as they consume the spans); keys is nil when dense spans the whole
// cross-section (scr == nil) or when the sparse map is used.
func lineSpans[C any, T Topology[C]](s *Set[C, T], axis int, scr *Scratch[C, T]) (dense []lineSpan, keys []int, sparse map[int]lineSpan) {
	t := s.Mesh()
	st := t.AxisStride(axis)
	L := t.AxisLen(axis)
	lines := t.Size() / L

	sparseMode := sparseLines(lines, s.Len())
	switch {
	case scr != nil && (!sparseMode || lines <= maxDenseLines):
		if cap(scr.spans) < lines {
			scr.spans = make([]lineSpan, lines)
		}
		dense = scr.spans[:lines]
		if scr.spanKeys == nil {
			// keys must be non-nil even when no line is occupied: a nil
			// keys slice means "dense spans the whole cross-section and
			// needs no reset", which is never true of the reused table.
			scr.spanKeys = make([]int, 0, 64)
		}
		keys = scr.spanKeys[:0]
	case !sparseMode:
		dense = make([]lineSpan, lines)
	case scr != nil:
		if scr.sparse == nil {
			scr.sparse = make(map[int]lineSpan, 64)
		}
		clear(scr.sparse)
		sparse = scr.sparse
	default:
		sparse = make(map[int]lineSpan, s.Len())
	}

	if sparse != nil {
		s.EachIndex(func(i int) {
			q := i / st
			r := i - q*st
			d := q / L
			pos := q - d*L
			k := d*st + r
			sp, ok := sparse[k]
			if !ok {
				sparse[k] = lineSpan{lo: pos, hi: pos, count: 1}
				return
			}
			if pos < sp.lo {
				sp.lo = pos
			}
			if pos > sp.hi {
				sp.hi = pos
			}
			sp.count++
			sparse[k] = sp
		})
		return nil, nil, sparse
	}

	// Contiguous axis, set dense relative to its window: extract the span
	// of each line meeting the window with whole-word scans instead of
	// per-bit division.
	if st == 1 && len(s.words) <= 2*s.Len() {
		wlo, whi := s.content()
		for k := wlo << 6 / L; k < lines && k*L < whi<<6; k++ {
			base := k * L
			lo, hi, count := s.SpanOfRange(base, base+L)
			if count == 0 {
				continue
			}
			dense[k] = lineSpan{lo: lo - base, hi: hi - base, count: count}
			if keys != nil {
				keys = append(keys, k)
			}
		}
		if keys != nil {
			scr.spanKeys = keys
		}
		return dense, keys, nil
	}

	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			i := (s.off+w)<<6 | b
			q := i / st
			r := i - q*st
			d := q / L
			pos := q - d*L
			k := d*st + r
			sp := dense[k]
			if sp.count == 0 {
				dense[k] = lineSpan{lo: pos, hi: pos, count: 1}
				if keys != nil {
					keys = append(keys, k)
				}
				continue
			}
			if pos < sp.lo {
				sp.lo = pos
			}
			if pos > sp.hi {
				sp.hi = pos
			}
			sp.count++
			dense[k] = sp
		}
	}
	if keys != nil {
		scr.spanKeys = keys
	}
	return dense, keys, nil
}

// resetSpans zeroes the touched entries of a scratch dense span table.
func resetSpans(dense []lineSpan, keys []int) {
	for _, k := range keys {
		dense[k] = lineSpan{}
	}
}

// IsOrthoConvex reports whether the region satisfies Definition 1: for any
// axis-parallel line, the nodes of the region on that line form a
// contiguous segment.
func IsOrthoConvex[C any, T Topology[C]](s *Set[C, T]) bool {
	t := s.Mesh()
	convex := func(sp lineSpan) bool {
		return sp.count == 0 || sp.count == sp.hi-sp.lo+1
	}
	for a := 0; a < t.Axes(); a++ {
		dense, _, sparse := lineSpans(s, a, nil)
		for _, sp := range dense {
			if !convex(sp) {
				return false
			}
		}
		for _, sp := range sparse {
			if !convex(sp) {
				return false
			}
		}
	}
	return true
}

// fillLine adds the gap nodes of one line span to dst and returns how many
// nodes that added. Full lines (count == hi-lo+1) have no gap and are
// skipped outright — on dense components they are the majority of all
// lines, and re-adding every interior node was the hottest wasted work in
// the whole closure. On the contiguous axis the gap is one dense index
// range filled with whole-word ORs.
func fillLine[C any, T Topology[C]](dst *Set[C, T], st, L, block, k int, sp lineSpan) int {
	if sp.hi-sp.lo < 2 || sp.count == sp.hi-sp.lo+1 {
		return 0
	}
	if st == 1 {
		base := k * L
		return dst.FillRange(base+sp.lo+1, base+sp.hi)
	}
	q := k / st
	base := q*block + (k - q*st)
	added := 0
	for v := sp.lo + 1; v < sp.hi; v++ {
		if dst.AddIndex(base + v*st) {
			added++
		}
	}
	return added
}

// fillOnceInto performs one scan-and-fill pass: for every axis it collects
// src's line spans and fills their gaps into dst (dst must start as a copy
// of src). It returns the number of nodes added.
func fillOnceInto[C any, T Topology[C]](src, dst *Set[C, T], scr *Scratch[C, T]) int {
	t := src.Mesh()
	added := 0
	for a := 0; a < t.Axes(); a++ {
		st := t.AxisStride(a)
		L := t.AxisLen(a)
		block := st * L
		dense, keys, sparse := lineSpans(src, a, scr)
		switch {
		case keys != nil:
			for _, k := range keys {
				added += fillLine(dst, st, L, block, k, dense[k])
			}
			resetSpans(dense, keys)
		case dense != nil:
			for k, sp := range dense {
				if sp.count == 0 {
					continue
				}
				added += fillLine(dst, st, L, block, k, sp)
			}
		default:
			for k, sp := range sparse {
				added += fillLine(dst, st, L, block, k, sp)
			}
		}
	}
	return added
}

// FillOnce returns the region plus the nodes of every axis-line gap — one
// "scan per axis and fill" pass of the paper's second centralized solution
// (concave row and column sections in 2-D, one extra line family per
// additional axis).
func FillOnce[C any, T Topology[C]](s *Set[C, T]) *Set[C, T] {
	out := s.Clone()
	fillOnceInto(s, out, nil)
	return out
}

// closureInto iterates fill passes to the fixpoint, recycling intermediate
// sets through scr. When the region is already convex it returns s itself
// (the scratch-mode sharing contract documented on Scratch.Closure).
func closureInto[C any, T Topology[C]](s *Set[C, T], scr *Scratch[C, T]) (*Set[C, T], int) {
	cur := s
	passes := 0
	for {
		next := scr.take(s.Mesh())
		next.CopyFrom(cur)
		if fillOnceInto(cur, next, scr) == 0 {
			scr.put(next)
			return cur, passes
		}
		if cur != s {
			scr.put(cur)
		}
		cur = next
		passes++
	}
}

// Closure returns the orthogonal convex closure of the region — the unique
// minimum orthogonal convex polygon (2-D) or polytope (3-D) containing it —
// together with the number of fill passes needed. In 2-D one pass suffices
// for 8-connected regions; in 3-D a fill along one axis can open a gap
// along another, so the loop cascades to a fixpoint (see the tests for a
// minimal cascading example). Minimality holds in any dimension: every
// orthogonal convex superset of the region must contain each fill pass.
// The result is always a fresh set.
func Closure[C any, T Topology[C]](s *Set[C, T]) (*Set[C, T], int) {
	out, passes := closureInto[C, T](s, nil)
	if out == s {
		out = s.Clone()
	}
	return out, passes
}

// Regions splits the set into its connected regions under the merge-process
// adjacency (Definition 2: 8-adjacency in 2-D, 26-adjacency in 3-D), in
// deterministic index-order seed order. These are exactly the faulty
// components of a fault set.
func Regions[C any, T Topology[C]](s *Set[C, T]) []*Set[C, T] {
	return regionsWith(s, nil, true)
}

// LinkRegions splits the set into its connected regions under the link
// adjacency of the network (4-adjacency in 2-D, 6-adjacency in 3-D), in
// deterministic index-order seed order.
func LinkRegions[C any, T Topology[C]](s *Set[C, T]) []*Set[C, T] {
	return regionsWith(s, nil, false)
}

// regionsWith routes a component search to the word-level flood, falling
// back to the per-neighbour walk for wrapping (torus) topologies, where
// axis lines are rings and the index arithmetic below would miss the seam.
func regionsWith[C any, T Topology[C]](s *Set[C, T], scr *Scratch[C, T], merge bool) []*Set[C, T] {
	t := s.Mesh()
	if t.Wraps() || t.Axes() > 3 {
		if merge {
			return regionsGeneric(s, func(t T, c C, buf []C) []C { return t.Adjacent(c, buf) })
		}
		return regionsGeneric(s, func(t T, c C, buf []C) []C { return t.Links(c, buf) })
	}
	return regionsFast(s, scr, merge)
}

// regionsFast floods components over the dense index space directly: the
// frontier is an index stack, neighbour candidacy is a handful of masked
// word probes, and no Topology method is called per node. Every
// component lies inside s's window, so the seen bitmap covers just that
// window and a probe outside it is simply a miss. The seed scan walks s's
// words in order, so regions come out in the same deterministic
// index-order seed order as the per-neighbour walk.
func regionsFast[C any, T Topology[C]](s *Set[C, T], scr *Scratch[C, T], merge bool) []*Set[C, T] {
	t := s.Mesh()
	axes := t.Axes()
	W := t.AxisLen(0)
	stY := t.AxisStride(1)
	lenY := t.AxisLen(1)
	stZ, lenZ := 0, 1
	if axes == 3 {
		stZ = t.AxisStride(2)
		lenZ = t.AxisLen(2)
	}

	sw, off := s.words, s.off
	var seenW []uint64
	var stack []int
	var out []*Set[C, T]
	if scr != nil {
		if cap(scr.seenWords) < len(sw) {
			scr.seenWords = make([]uint64, len(sw))
		}
		seenW = scr.seenWords[:len(sw)]
		clear(seenW)
		stack = scr.stack[:0]
		out = scr.regions[:0]
	} else {
		seenW = make([]uint64, len(sw))
	}

	var cand [26]int
	for w0 := range sw {
		for {
			rem := sw[w0] &^ seenW[w0]
			if rem == 0 {
				break
			}
			b := bits.TrailingZeros64(rem)
			seed := (off+w0)<<6 | b
			seenW[w0] |= 1 << b
			region := scr.take(t)
			region.AddIndex(seed)
			stack = append(stack, seed)
			for len(stack) > 0 {
				i := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				x := i % W
				q := i / W
				y := q % lenY
				z := q / lenY
				nc := 0
				if merge {
					dzlo, dzhi := max(-1, -z), min(1, lenZ-1-z)
					dylo, dyhi := max(-1, -y), min(1, lenY-1-y)
					dxlo, dxhi := max(-1, -x), min(1, W-1-x)
					for dz := dzlo; dz <= dzhi; dz++ {
						for dy := dylo; dy <= dyhi; dy++ {
							rowBase := i + dz*stZ + dy*stY
							for dx := dxlo; dx <= dxhi; dx++ {
								if dx != 0 || dy != 0 || dz != 0 {
									cand[nc] = rowBase + dx
									nc++
								}
							}
						}
					}
				} else {
					for _, c := range [...]struct {
						ok bool
						j  int
					}{
						{x > 0, i - 1}, {x < W-1, i + 1},
						{y > 0, i - stY}, {y < lenY-1, i + stY},
						{z > 0, i - stZ}, {z < lenZ-1, i + stZ},
					} {
						if c.ok {
							cand[nc] = c.j
							nc++
						}
					}
				}
				for _, j := range cand[:nc] {
					wj, bj := j>>6-off, uint64(1)<<(j&63)
					if uint(wj) < uint(len(sw)) && sw[wj]&bj != 0 && seenW[wj]&bj == 0 {
						seenW[wj] |= bj
						region.AddIndex(j)
						stack = append(stack, j)
					}
				}
			}
			out = append(out, region)
		}
	}
	if scr != nil {
		scr.stack = stack[:0]
		scr.regions = out
	}
	return out
}

// regionsGeneric is the per-neighbour component search kept for wrapping
// topologies; regionsFast supersedes it everywhere else.
func regionsGeneric[C any, T Topology[C]](s *Set[C, T], neighbors func(T, C, []C) []C) []*Set[C, T] {
	t := s.Mesh()
	var out []*Set[C, T]
	seen := NewSet[C](t)
	var stack, buf []C
	s.Each(func(c C) {
		if seen.Has(c) {
			return
		}
		region := NewSet[C](t)
		stack = append(stack[:0], c)
		seen.Add(c)
		region.Add(c)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			buf = neighbors(t, cur, buf[:0])
			for _, n := range buf {
				// Neighbour lists are pre-wrapped onto the mesh, so the
				// dense index is resolved once and the three set probes
				// skip their own Contains/Index round trips (these are
				// dictionary calls under Go generics).
				i := t.Index(n)
				if s.HasIndex(i) && !seen.HasIndex(i) {
					seen.AddIndex(i)
					region.AddIndex(i)
					stack = append(stack, n)
				}
			}
		}
		out = append(out, region)
	})
	return out
}
