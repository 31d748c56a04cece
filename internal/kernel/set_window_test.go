package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
)

// Window property tests: every Set method is driven against a plain
// []bool reference on meshes whose row width is not a multiple of 64, so
// windows start and end mid-row and rows straddle words. After every
// operation the set must agree with the reference on every probe and keep
// the window invariants (the window lies inside the mesh and inside the
// backing array, and every backing word outside the window is zero).

// refSet pairs a set with its reference membership.
type refSet[C any, T Topology[C]] struct {
	s   *Set[C, T]
	ref []bool
}

func (r refSet[C, T]) count() int {
	n := 0
	for _, b := range r.ref {
		if b {
			n++
		}
	}
	return n
}

// checkSet verifies s against ref exhaustively, plus the window
// invariants.
func checkSet[C any, T Topology[C]](t *testing.T, what string, s *Set[C, T], ref []bool) {
	t.Helper()
	m := s.Mesh()
	if len(s.words) > 0 {
		if s.off < 0 || s.off+len(s.words) > s.meshWords() {
			t.Fatalf("%s: window [%d,%d) outside the mesh's %d words", what, s.off, s.off+len(s.words), s.meshWords())
		}
		if s.at < 0 || s.at+len(s.words) > len(s.buf) || &s.words[0] != &s.buf[s.at] {
			t.Fatalf("%s: window is not buf[%d:%d] (len(buf) %d)", what, s.at, s.at+len(s.words), len(s.buf))
		}
	}
	for k, w := range s.buf {
		if (k < s.at || k >= s.at+len(s.words)) && w != 0 {
			t.Fatalf("%s: backing word %d outside the window [%d,%d) is %#x", what, k, s.at, s.at+len(s.words), w)
		}
	}
	want := 0
	var idx []int
	for i, b := range ref {
		if s.HasIndex(i) != b || s.Has(m.CoordAt(i)) != b {
			t.Fatalf("%s: HasIndex(%d) = %v, want %v", what, i, s.HasIndex(i), b)
		}
		if b {
			want++
			idx = append(idx, i)
		}
	}
	if s.Len() != want || s.Empty() != (want == 0) {
		t.Fatalf("%s: Len = %d, want %d", what, s.Len(), want)
	}
	var got []int
	s.EachIndex(func(i int) { got = append(got, i) })
	coords := s.Coords()
	if len(got) != len(idx) || len(coords) != len(idx) {
		t.Fatalf("%s: EachIndex visited %d, Coords %d nodes, want %d", what, len(got), len(coords), len(idx))
	}
	for k := range idx {
		if got[k] != idx[k] || m.Index(coords[k]) != idx[k] {
			t.Fatalf("%s: iteration %d yields %d / %v, want %d", what, k, got[k], coords[k], idx[k])
		}
	}
	first := -1
	if len(idx) > 0 {
		first = idx[0]
	}
	if s.FirstIndex() != first {
		t.Fatalf("%s: FirstIndex = %d, want %d", what, s.FirstIndex(), first)
	}
}

// checkSpan compares SpanOfRange over [lo, hi) with the reference.
func checkSpan[C any, T Topology[C]](t *testing.T, r refSet[C, T], lo, hi int) {
	t.Helper()
	wf, wl, wc := -1, -1, 0
	for i := lo; i < hi; i++ {
		if r.ref[i] {
			if wf < 0 {
				wf = i
			}
			wl = i
			wc++
		}
	}
	if f, l, c := r.s.SpanOfRange(lo, hi); f != wf || l != wl || c != wc {
		t.Fatalf("SpanOfRange(%d,%d) = (%d,%d,%d), want (%d,%d,%d)", lo, hi, f, l, c, wf, wl, wc)
	}
}

// checkRelations compares Equal, ContainsAll and Disjoint of a and b with
// the reference, both ways round.
func checkRelations[C any, T Topology[C]](t *testing.T, a, b refSet[C, T]) {
	t.Helper()
	eq, aHasB, bHasA, disj := true, true, true, true
	for i := range a.ref {
		eq = eq && a.ref[i] == b.ref[i]
		aHasB = aHasB && (a.ref[i] || !b.ref[i])
		bHasA = bHasA && (b.ref[i] || !a.ref[i])
		disj = disj && !(a.ref[i] && b.ref[i])
	}
	if a.s.Equal(b.s) != eq || b.s.Equal(a.s) != eq {
		t.Fatalf("Equal = %v/%v, want %v", a.s.Equal(b.s), b.s.Equal(a.s), eq)
	}
	if a.s.ContainsAll(b.s) != aHasB || b.s.ContainsAll(a.s) != bHasA {
		t.Fatalf("ContainsAll = %v/%v, want %v/%v", a.s.ContainsAll(b.s), b.s.ContainsAll(a.s), aHasB, bHasA)
	}
	if a.s.Disjoint(b.s) != disj || b.s.Disjoint(a.s) != disj {
		t.Fatalf("Disjoint = %v, want %v", a.s.Disjoint(b.s), disj)
	}
}

// combine applies op (element-wise) to a copy of the references.
func combine(a, b []bool, op func(x, y bool) bool) []bool {
	out := make([]bool, len(a))
	for i := range a {
		out[i] = op(a[i], b[i])
	}
	return out
}

func orOp(x, y bool) bool     { return x || y }
func andOp(x, y bool) bool    { return x && y }
func andNotOp(x, y bool) bool { return x && !y }

// windowFuzz drives random operations over a handful of sets. Indices are
// drawn either anywhere or from a narrow band around each set's own
// centre, so windows are sometimes tiny, sometimes disjoint, sometimes
// overlapping; sets are recycled through a Scratch to exercise reuse of
// stale backing arrays.
func windowFuzz[C any, T Topology[C]](t *testing.T, m T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	size := m.Size()
	scr := NewScratch[C](m)
	const nsets = 4
	sets := make([]refSet[C, T], nsets)
	centres := make([]int, nsets)
	for k := range sets {
		sets[k] = refSet[C, T]{NewSet[C](m), make([]bool, size)}
		centres[k] = rng.Intn(size)
	}
	pick := func(k int) int {
		if rng.Intn(3) == 0 {
			return rng.Intn(size)
		}
		return min(size-1, max(0, centres[k]+rng.Intn(160)-80))
	}
	pickRange := func(k int) (int, int) {
		lo := pick(k)
		return lo, min(size, lo+rng.Intn(200))
	}
	for step := 0; step < steps; step++ {
		k, j := rng.Intn(nsets), rng.Intn(nsets)
		a, b := &sets[k], sets[j]
		op := rng.Intn(17)
		switch op {
		case 0: // AddIndex / Add
			i := pick(k)
			var changed bool
			if rng.Intn(2) == 0 {
				changed = a.s.AddIndex(i)
			} else {
				changed = a.s.Add(m.CoordAt(i))
			}
			if changed == a.ref[i] {
				t.Fatalf("step %d: add %d reported change %v", step, i, changed)
			}
			a.ref[i] = true
		case 1: // RemoveIndex / Remove
			i := pick(k)
			var changed bool
			if rng.Intn(2) == 0 {
				changed = a.s.RemoveIndex(i)
			} else {
				changed = a.s.Remove(m.CoordAt(i))
			}
			if changed != a.ref[i] {
				t.Fatalf("step %d: remove %d reported change %v", step, i, changed)
			}
			a.ref[i] = false
		case 2: // FillRange
			lo, hi := pickRange(k)
			want := 0
			for i := lo; i < hi; i++ {
				if !a.ref[i] {
					a.ref[i] = true
					want++
				}
			}
			if got := a.s.FillRange(lo, hi); got != want {
				t.Fatalf("step %d: FillRange(%d,%d) added %d, want %d", step, lo, hi, got, want)
			}
		case 3: // ClearRange
			lo, hi := pickRange(k)
			want := 0
			for i := lo; i < hi; i++ {
				if a.ref[i] {
					a.ref[i] = false
					want++
				}
			}
			if got := a.s.ClearRange(lo, hi); got != want {
				t.Fatalf("step %d: ClearRange(%d,%d) removed %d, want %d", step, lo, hi, got, want)
			}
		case 4: // UnionWith
			a.s.UnionWith(b.s)
			a.ref = combine(a.ref, b.ref, orOp)
		case 5: // orWithNoCount + recount
			a.s.orWithNoCount(b.s)
			a.s.recount()
			a.ref = combine(a.ref, b.ref, orOp)
		case 6: // IntersectWith
			a.s.IntersectWith(b.s)
			a.ref = combine(a.ref, b.ref, andOp)
		case 7: // SubtractWith
			a.s.SubtractWith(b.s)
			a.ref = combine(a.ref, b.ref, andNotOp)
		case 8: // Union / Intersect / Subtract leave their operands alone
			u, in, sub := Union(a.s, b.s), Intersect(a.s, b.s), Subtract(a.s, b.s)
			checkSet(t, "Union", u, combine(a.ref, b.ref, orOp))
			checkSet(t, "Intersect", in, combine(a.ref, b.ref, andOp))
			checkSet(t, "Subtract", sub, combine(a.ref, b.ref, andNotOp))
		case 9: // Clone is independent of its source
			c := a.s.Clone()
			c.AddIndex(pick(k))
			checkSet(t, "Clone source", a.s, a.ref)
			c.CopyFrom(a.s)
			a.s = c
		case 10: // CopyFrom
			if k != j {
				a.s.CopyFrom(b.s)
				a.ref = append([]bool(nil), b.ref...)
			}
		case 11: // Clear
			a.s.Clear()
			clear(a.ref)
		case 12: // relations
			checkRelations(t, *a, b)
		case 13: // SpanOfRange
			lo, hi := pickRange(k)
			checkSpan(t, *a, lo, hi)
			checkSpan(t, *a, 0, size)
		case 14: // trim, with the freed array recycled through the scratch
			old := a.s.trim()
			lo, hi := a.s.content()
			if len(a.s.buf) != hi-lo || a.s.off != lo {
				t.Fatalf("step %d: trimmed to buf %d at word %d, content [%d,%d)", step, len(a.s.buf), a.s.off, lo, hi)
			}
			for _, w := range old {
				if w != 0 {
					t.Fatalf("step %d: trim returned a non-zero array", step)
				}
			}
			scr.recycle(old)
		case 15: // recycle the set through the scratch
			scr.put(a.s)
			a.s = scr.take(m)
			clear(a.ref)
		case 16: // move the set's centre, so later windows jump
			centres[k] = rng.Intn(size)
		}
		checkSet(t, "step", a.s, a.ref)
		if a.s.Len() != a.count() {
			t.Fatalf("step %d op %d: Len %d, want %d", step, op, a.s.Len(), a.count())
		}
	}
}

func TestSetWindowMatchesReference2D(t *testing.T) {
	for _, m := range []grid.Mesh{grid.New(67, 9), grid.New(130, 5), grid.New(13, 40)} {
		windowFuzz[grid.Coord](t, m, int64(m.W), 3000)
	}
}

func TestSetWindowMatchesReference3D(t *testing.T) {
	for _, m := range []grid3.Mesh{grid3.New(70, 3, 4), grid3.New(9, 11, 6)} {
		windowFuzz[grid3.Coord](t, m, int64(m.W), 3000)
	}
}

// A window wider than its content: adding two far-apart nodes and
// removing one leaves the window spanning both, and every operation must
// still read the stale-but-zero words correctly.
func TestSetWindowWiderThanContent(t *testing.T) {
	m := grid.New(67, 9)
	a := refSet[grid.Coord, grid.Mesh]{NewSet[grid.Coord](m), make([]bool, m.Size())}
	a.s.AddIndex(5)
	a.s.AddIndex(590)
	a.s.RemoveIndex(590)
	a.ref[5] = true
	if lo, hi := a.s.content(); len(a.s.words) <= hi-lo {
		t.Fatalf("window of %d words is not wider than the content's %d", len(a.s.words), hi-lo)
	}
	checkSet(t, "wide", a.s, a.ref)
	b := refSet[grid.Coord, grid.Mesh]{SetOf(m, m.CoordAt(5)), make([]bool, m.Size())}
	b.ref[5] = true
	checkRelations(t, a, b)
	checkSpan(t, a, 0, m.Size())
	c := a.s.Clone()
	if len(c.words) != 1 {
		t.Fatalf("clone of a one-node set has a %d-word window", len(c.words))
	}
	checkSet(t, "clone", c, a.ref)
	b.s.CopyFrom(a.s)
	checkSet(t, "copy", b.s, a.ref)
	a.s.UnionWith(SetOf(m, m.CoordAt(600)))
	a.ref[600] = true
	checkSet(t, "union", a.s, a.ref)
}

// Two sets with disjoint windows: the set algebra must treat each window's
// outside as zero rather than compare or combine misaligned words.
func TestSetWindowDisjointWindows(t *testing.T) {
	m := grid.New(67, 9)
	lowRef, highRef := make([]bool, m.Size()), make([]bool, m.Size())
	low, high := NewSet[grid.Coord](m), NewSet[grid.Coord](m)
	for _, i := range []int{1, 40, 70, 100} {
		low.AddIndex(i)
		lowRef[i] = true
	}
	for _, i := range []int{400, 450, 500, 602} {
		high.AddIndex(i)
		highRef[i] = true
	}
	if low.off+len(low.words) > high.off {
		t.Fatalf("windows [%d,%d) and [%d,...) overlap", low.off, low.off+len(low.words), high.off)
	}
	a := refSet[grid.Coord, grid.Mesh]{low, lowRef}
	b := refSet[grid.Coord, grid.Mesh]{high, highRef}
	checkRelations(t, a, b)
	checkSet(t, "Union", Union(low, high), combine(lowRef, highRef, orOp))
	checkSet(t, "Union reversed", Union(high, low), combine(lowRef, highRef, orOp))
	checkSet(t, "Intersect", Intersect(low, high), combine(lowRef, highRef, andOp))
	checkSet(t, "Subtract", Subtract(high, low), highRef)
	// Equal cardinality, disjoint windows: never equal.
	if low.Equal(high) || high.Equal(low) {
		t.Fatal("disjoint same-size sets compare equal")
	}
	or := low.Clone()
	or.orWithNoCount(high)
	or.recount()
	checkSet(t, "orWithNoCount", or, combine(lowRef, highRef, orOp))
}

// Sets recycled through a Scratch come back empty but keep their backing
// array; a recycled array from a far part of the mesh must serve a window
// anywhere else.
func TestSetWindowScratchRecycle(t *testing.T) {
	m := grid3.New(70, 3, 4)
	scr := NewScratch[grid3.Coord](m)
	s := scr.take(m)
	s.FillRange(0, m.Size())
	arr := len(s.buf)
	scr.put(s)
	r := scr.take(m)
	if r != s || len(r.buf) != arr {
		t.Fatal("scratch did not recycle the set and its array")
	}
	ref := make([]bool, m.Size())
	checkSet(t, "recycled", r, ref)
	for _, i := range []int{m.Size() - 1, 3, 400} {
		r.AddIndex(i)
		ref[i] = true
		checkSet(t, "recycled add", r, ref)
	}
	// A trimmed set's old array comes back through recycle as an empty set.
	small := scr.take(m)
	small.AddIndex(200)
	scr.recycle(small.trim())
	if len(small.buf) != 1 {
		t.Fatalf("trimmed singleton keeps a %d-word array", len(small.buf))
	}
	again := scr.take(m)
	checkSet(t, "recycled array", again, make([]bool, m.Size()))
}

// stubModel is a block model that only copies the fault set: enough for
// engine tests that do not look at the unsafe set's shape.
type stubModel struct{ faults *Set[grid.Coord, grid.Mesh] }

func (stubModel) Grow(grid.Coord, []*Set[grid.Coord, grid.Mesh], *Set[grid.Coord, grid.Mesh]) {}
func (stubModel) Shrink(grid.Coord, *Set[grid.Coord, grid.Mesh], []*Set[grid.Coord, grid.Mesh]) {
}
func (stubModel) Load([]*Set[grid.Coord, grid.Mesh])    {}
func (b stubModel) Unsafe() *Set[grid.Coord, grid.Mesh] { return b.faults.Clone() }

// A singleton component on a 2048² mesh is published with a one-word
// window in an array of at most 2 words — even when the scratch array it
// was built in came from a component spanning many rows.
func TestEngineSingletonWindow2048(t *testing.T) {
	m := grid.New(2048, 2048)
	e, err := NewEngine[grid.Coord](m, func(_ grid.Mesh, faults *Set[grid.Coord, grid.Mesh], _ *Scratch[grid.Coord, grid.Mesh]) BlockModel[grid.Coord, grid.Mesh] {
		return stubModel{faults}
	})
	if err != nil {
		t.Fatal(err)
	}
	// A diagonal component spanning 200 rows, then repaired: its arrays
	// go back to the scratch pool.
	var events []Event[grid.Coord]
	for d := 0; d < 200; d++ {
		events = append(events, Event[grid.Coord]{Op: Add, Node: grid.XY(100+d, 100+d)})
	}
	for d := 0; d < 200; d++ {
		events = append(events, Event[grid.Coord]{Op: Clear, Node: grid.XY(100+d, 100+d)})
	}
	events = append(events, Event[grid.Coord]{Op: Add, Node: grid.XY(1000, 1500)})
	if _, _, err := e.Apply(events); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if len(snap.Components()) != 1 {
		t.Fatalf("%d components, want 1", len(snap.Components()))
	}
	for name, s := range map[string]*Set[grid.Coord, grid.Mesh]{
		"component": snap.Components()[0],
		"polygon":   snap.Polygons()[0],
		"disabled":  snap.Disabled(),
		"faults":    snap.Faults(),
	} {
		if len(s.words) != 1 || len(s.buf) > 2 {
			t.Errorf("%s: %d-word window in a %d-word array, want 1 in at most 2", name, len(s.words), len(s.buf))
		}
	}
	if err := e.CheckOwners(); err != nil {
		t.Fatal(err)
	}
}
