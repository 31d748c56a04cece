package kernel

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a bitset of the nodes of a fixed topology, laid out as the
// mesh's row-major sequence of 64-bit words (word w holds dense indices
// [64w, 64w+64)). A set stores only a window of that sequence: the words
// from its first to its last possibly-set word. Every word outside the
// window is zero, so a faulty component of a few nodes costs a few words
// however large the mesh is, and copy, compare, set algebra, iteration
// and SpanOfRange cost the window (or the union of two windows) rather
// than the mesh. Insertions (AddIndex, FillRange, UnionWith) grow the
// window; removals leave it wider than the content until the set is
// cleared or cloned.
//
// The zero value is unusable; create sets with NewSet. Sets are not safe
// for concurrent mutation.
type Set[C any, T Topology[C]] struct {
	topo T
	// buf is the backing array; every buf entry outside words is zero, so
	// the window can grow in place without clearing.
	buf []uint64
	// words is the window, buf[at : at+len(words)]; words[k] is mesh word
	// off+k.
	words []uint64
	at    int
	off   int
	n     int // cached cardinality
}

// NewSet returns an empty set over the given topology. It allocates
// nothing until the first insertion.
func NewSet[C any, T Topology[C]](t T) *Set[C, T] {
	return &Set[C, T]{topo: t}
}

// SetOf returns a set containing exactly the given coordinates. Coordinates
// outside the mesh cause a panic, mirroring Topology.Index.
func SetOf[C any, T Topology[C]](t T, coords ...C) *Set[C, T] {
	s := NewSet[C](t)
	for _, c := range coords {
		s.Add(c)
	}
	return s
}

// Mesh returns the topology the set is defined over.
func (s *Set[C, T]) Mesh() T { return s.topo }

// Len returns the number of nodes in the set.
func (s *Set[C, T]) Len() int { return s.n }

// Empty reports whether the set has no nodes.
func (s *Set[C, T]) Empty() bool { return s.n == 0 }

// word returns mesh word g of the set, zero outside the window.
func (s *Set[C, T]) word(g int) uint64 {
	if k := g - s.off; uint(k) < uint(len(s.words)) {
		return s.words[k]
	}
	return 0
}

// Has reports whether c is in the set. Coordinates outside the mesh are
// reported as absent, which lets callers probe neighbours without bounds
// checks.
func (s *Set[C, T]) Has(c C) bool {
	if !s.topo.Contains(c) {
		return false
	}
	return s.HasIndex(s.topo.Index(c))
}

// HasIndex reports whether the node with dense index i is in the set.
func (s *Set[C, T]) HasIndex(i int) bool {
	k := i>>6 - s.off
	return uint(k) < uint(len(s.words)) && s.words[k]&(1<<(i&63)) != 0
}

// Add inserts c and reports whether the set changed.
func (s *Set[C, T]) Add(c C) bool {
	return s.AddIndex(s.topo.Index(c))
}

// AddIndex inserts the node with dense index i and reports whether the set
// changed.
func (s *Set[C, T]) AddIndex(i int) bool {
	k := i>>6 - s.off
	if uint(k) >= uint(len(s.words)) {
		s.grow(i>>6, i>>6+1)
		k = i>>6 - s.off
	}
	b := uint64(1) << (i & 63)
	if s.words[k]&b != 0 {
		return false
	}
	s.words[k] |= b
	s.n++
	return true
}

// Remove deletes c and reports whether the set changed.
func (s *Set[C, T]) Remove(c C) bool {
	if !s.topo.Contains(c) {
		return false
	}
	return s.RemoveIndex(s.topo.Index(c))
}

// RemoveIndex deletes the node with dense index i and reports whether the
// set changed.
func (s *Set[C, T]) RemoveIndex(i int) bool {
	k := i>>6 - s.off
	b := uint64(1) << (i & 63)
	if uint(k) >= uint(len(s.words)) || s.words[k]&b == 0 {
		return false
	}
	s.words[k] &^= b
	s.n--
	return true
}

// Clear removes all nodes. The backing array is kept for reuse.
func (s *Set[C, T]) Clear() {
	clear(s.words)
	s.words = s.buf[:0]
	s.at, s.off, s.n = 0, 0, 0
}

// meshWords is the word count of a full-mesh bitset.
func (s *Set[C, T]) meshWords() int { return (s.topo.Size() + 63) / 64 }

// grow widens the window to cover mesh words [lo, hi), keeping the
// content. The window grows in place when the backing array has room
// around it, is moved within the array when the array is large enough,
// and otherwise moves to a fresh array of at least twice the size (capped
// at the mesh), with the slack placed on the side the window grew toward.
func (s *Set[C, T]) grow(lo, hi int) {
	total := s.meshWords()
	if lo < 0 || hi > total {
		panic(fmt.Sprintf("kernel: word range [%d,%d) outside %v", lo, hi, s.topo))
	}
	olo, ohi := s.off, s.off+len(s.words)
	if len(s.words) == 0 {
		olo, ohi = lo, lo
	}
	nlo, nhi := min(lo, olo), max(hi, ohi)
	need := nhi - nlo
	if len(s.words) > 0 {
		if nlo == olo && nhi == ohi {
			return
		}
		if at := s.at - (olo - nlo); at >= 0 && at+need <= len(s.buf) {
			s.at, s.off, s.words = at, nlo, s.buf[at:at+need]
			return
		}
	}
	fresh := len(s.buf) < need
	buf := s.buf
	if fresh {
		buf = make([]uint64, min(max(need, 2*len(s.buf)), total))
	}
	// Slack is only useful up to the mesh edge on the side it sits.
	slack := len(buf) - need
	at := max(0, slack-(total-nhi))
	if nlo < olo {
		at = min(slack, nlo)
	}
	data, n := at+(olo-nlo), len(s.words)
	copy(buf[data:data+n], s.words)
	if !fresh {
		// Moved within the same array: zero the old positions the copy
		// did not overwrite, restoring the zero-outside-window invariant.
		if data > s.at {
			clear(buf[s.at:min(s.at+n, data)])
		} else if data < s.at {
			clear(buf[max(s.at, data+n) : s.at+n])
		}
	}
	s.buf, s.at, s.off, s.words = buf, at, nlo, buf[at:at+need]
}

// content returns the mesh word range [lo, hi) from the set's first to
// its last non-zero word (lo == hi when the set is empty).
func (s *Set[C, T]) content() (lo, hi int) {
	if s.n == 0 {
		return s.off, s.off
	}
	a, b := 0, len(s.words)
	for s.words[a] == 0 {
		a++
	}
	for s.words[b-1] == 0 {
		b--
	}
	return s.off + a, s.off + b
}

// Clone returns an independent copy whose window is exactly the content
// of s.
func (s *Set[C, T]) Clone() *Set[C, T] {
	lo, hi := s.content()
	out := &Set[C, T]{topo: s.topo, off: lo, n: s.n}
	if hi > lo {
		out.buf = make([]uint64, hi-lo)
		copy(out.buf, s.words[lo-s.off:hi-s.off])
	}
	out.words = out.buf
	return out
}

// CopyFrom makes s an exact copy of t (same topology), reusing s's
// backing array when it is large enough — the scratch-reuse counterpart
// of Clone.
func (s *Set[C, T]) CopyFrom(t *Set[C, T]) {
	s.sameMesh(t)
	if s == t {
		return
	}
	s.Clear()
	lo, hi := t.content()
	if hi > lo {
		s.grow(lo, hi)
		copy(s.words, t.words[lo-t.off:hi-t.off])
	}
	s.n = t.n
}

// trim shrinks the window to the content and, when the backing array is
// larger than that, moves the window into an exactly sized array. It
// returns the old array, zeroed, for reuse (nil when nothing moved).
// Published snapshot sets are trimmed so a small component never pins a
// large recycled array.
func (s *Set[C, T]) trim() []uint64 {
	lo, hi := s.content()
	if len(s.buf) == hi-lo {
		s.at, s.off, s.words = 0, lo, s.buf
		return nil
	}
	old := s.buf
	s.buf = make([]uint64, hi-lo)
	copy(s.buf, s.words[lo-s.off:hi-s.off])
	clear(s.words)
	s.at, s.off, s.words = 0, lo, s.buf
	return old
}

// masks returns the word range and edge masks of the dense-index range
// [lo, hi), which must be non-empty.
func masks(lo, hi int) (loW, hiW int, loMask, hiMask uint64) {
	return lo >> 6, (hi - 1) >> 6, ^uint64(0) << (lo & 63), ^uint64(0) >> (63 - (hi-1)&63)
}

// FillRange inserts every node with a dense index in the half-open range
// [lo, hi) and returns how many were newly added. It ORs whole masked
// words, which is what makes axis-line gap filling word-parallel on the
// contiguous axis (see FillOnce). The range must lie within [0, Size).
func (s *Set[C, T]) FillRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW, loMask, hiMask := masks(lo, hi)
	s.grow(loW, hiW+1)
	w := s.words[loW-s.off : hiW-s.off+1]
	added := 0
	if len(w) == 1 {
		m := loMask & hiMask
		added = bits.OnesCount64(m &^ w[0])
		w[0] |= m
	} else {
		last := len(w) - 1
		added = bits.OnesCount64(loMask&^w[0]) + bits.OnesCount64(hiMask&^w[last])
		w[0] |= loMask
		w[last] |= hiMask
		for k := 1; k < last; k++ {
			added += bits.OnesCount64(^w[k])
			w[k] = ^uint64(0)
		}
	}
	s.n += added
	return added
}

// ClearRange removes every node with a dense index in the half-open range
// [lo, hi) and returns how many were removed. It AND-NOTs whole masked
// words — FillRange's counterpart, used by the 3-D cuboid block model to
// re-rasterize only the rows a shrunk component's bounding cuboid covered.
// The range must lie within [0, Size); only its part inside the window is
// visited.
func (s *Set[C, T]) ClearRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW, loMask, hiMask := masks(lo, hi)
	removed := 0
	for g := max(loW, s.off); g <= min(hiW, s.off+len(s.words)-1); g++ {
		m := ^uint64(0)
		if g == loW {
			m &= loMask
		}
		if g == hiW {
			m &= hiMask
		}
		k := g - s.off
		removed += bits.OnesCount64(s.words[k] & m)
		s.words[k] &^= m
	}
	s.n -= removed
	return removed
}

// SpanOfRange scans the half-open dense-index range [lo, hi) word-wise and
// returns the first and last set indices inside it plus the number of set
// nodes. first and last are -1 when the range holds no node. For a
// contiguous axis line ([base, base+len) in row-major layout) this is the
// whole-word replacement for walking the line bit by bit. Only the part
// of the range inside the window is visited.
func (s *Set[C, T]) SpanOfRange(lo, hi int) (first, last, count int) {
	first, last = -1, -1
	if lo >= hi {
		return first, last, 0
	}
	loW, hiW, loMask, hiMask := masks(lo, hi)
	for g := max(loW, s.off); g <= min(hiW, s.off+len(s.words)-1); g++ {
		word := s.words[g-s.off]
		if g == loW {
			word &= loMask
		}
		if g == hiW {
			word &= hiMask
		}
		if word == 0 {
			continue
		}
		if first < 0 {
			first = g<<6 | bits.TrailingZeros64(word)
		}
		last = g<<6 | (63 - bits.LeadingZeros64(word))
		count += bits.OnesCount64(word)
	}
	return first, last, count
}

func (s *Set[C, T]) sameMesh(t *Set[C, T]) {
	if s.topo != t.topo {
		panic("kernel: sets over different meshes")
	}
}

// overlap returns the mesh word range [lo, hi) shared by both windows
// (lo >= hi when they are disjoint).
func (s *Set[C, T]) overlap(t *Set[C, T]) (lo, hi int) {
	return max(s.off, t.off), min(s.off+len(s.words), t.off+len(t.words))
}

// UnionWith adds every node of t to s, growing s's window to cover t's.
func (s *Set[C, T]) UnionWith(t *Set[C, T]) {
	s.sameMesh(t)
	if len(t.words) == 0 {
		return
	}
	s.grow(t.off, t.off+len(t.words))
	dst := s.words[t.off-s.off:]
	added := 0
	for k, w := range t.words {
		added += bits.OnesCount64(w &^ dst[k])
		dst[k] |= w
	}
	s.n += added
}

// orWithNoCount ORs t into s without maintaining the cardinality cache;
// callers accumulate several unions and then pay one recount, which keeps
// the per-word popcount out of the snapshot-publish hot loop.
func (s *Set[C, T]) orWithNoCount(t *Set[C, T]) {
	s.sameMesh(t)
	if len(t.words) == 0 {
		return
	}
	s.grow(t.off, t.off+len(t.words))
	dst := s.words[t.off-s.off:]
	for k, w := range t.words {
		dst[k] |= w
	}
}

// recount recomputes the cached cardinality after orWithNoCount calls.
func (s *Set[C, T]) recount() {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	s.n = n
}

// IntersectWith removes from s every node not in t.
func (s *Set[C, T]) IntersectWith(t *Set[C, T]) {
	s.sameMesh(t)
	n := 0
	for k := range s.words {
		s.words[k] &= t.word(s.off + k)
		n += bits.OnesCount64(s.words[k])
	}
	s.n = n
}

// SubtractWith removes from s every node of t.
func (s *Set[C, T]) SubtractWith(t *Set[C, T]) {
	s.sameMesh(t)
	lo, hi := s.overlap(t)
	removed := 0
	for g := lo; g < hi; g++ {
		w := &s.words[g-s.off]
		removed += bits.OnesCount64(*w & t.words[g-t.off])
		*w &^= t.words[g-t.off]
	}
	s.n -= removed
}

// Union returns a new set with the nodes of both.
func Union[C any, T Topology[C]](a, b *Set[C, T]) *Set[C, T] {
	out := a.Clone()
	out.UnionWith(b)
	return out
}

// Intersect returns a new set with the common nodes.
func Intersect[C any, T Topology[C]](a, b *Set[C, T]) *Set[C, T] {
	out := a.Clone()
	out.IntersectWith(b)
	return out
}

// Subtract returns a new set with the nodes of a that are not in b.
func Subtract[C any, T Topology[C]](a, b *Set[C, T]) *Set[C, T] {
	out := a.Clone()
	out.SubtractWith(b)
	return out
}

// Equal reports whether the two sets contain the same nodes. With equal
// cardinalities, agreement on s's window implies t holds nothing outside
// it, so only s's window is compared.
func (s *Set[C, T]) Equal(t *Set[C, T]) bool {
	if s.topo != t.topo || s.n != t.n {
		return false
	}
	for k, w := range s.words {
		if w != t.word(s.off+k) {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every node of t is in s.
func (s *Set[C, T]) ContainsAll(t *Set[C, T]) bool {
	s.sameMesh(t)
	for k, w := range t.words {
		if w&^s.word(t.off+k) != 0 {
			return false
		}
	}
	return true
}

// Disjoint reports whether the two sets share no node.
func (s *Set[C, T]) Disjoint(t *Set[C, T]) bool {
	s.sameMesh(t)
	lo, hi := s.overlap(t)
	for g := lo; g < hi; g++ {
		if s.words[g-s.off]&t.words[g-t.off] != 0 {
			return false
		}
	}
	return true
}

// Each calls fn for every node in the set in dense index order (row-major
// in 2-D).
func (s *Set[C, T]) Each(fn func(C)) {
	for k, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			fn(s.topo.CoordAt((s.off+k)<<6 | b))
		}
	}
}

// EachIndex calls fn for every node in the set in dense index order. It is
// Each without the CoordAt round trip — on the hot paths CoordAt is a
// dictionary call under Go generics, and most consumers only need the
// index anyway.
func (s *Set[C, T]) EachIndex(fn func(int)) {
	for k, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			fn((s.off+k)<<6 | b)
		}
	}
}

// FirstIndex returns the smallest dense index in the set, or -1 when the
// set is empty. It is the index-order "seed" of the set, the ordering key
// used wherever components must appear in a deterministic order.
func (s *Set[C, T]) FirstIndex() int {
	for k, word := range s.words {
		if word != 0 {
			return (s.off+k)<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Coords returns the nodes of the set in dense index order.
func (s *Set[C, T]) Coords() []C {
	out := make([]C, 0, s.n)
	s.Each(func(c C) { out = append(out, c) })
	return out
}

// String lists the nodes in dense index order, e.g. "{(2,4) (3,4) (4,3)}".
func (s *Set[C, T]) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(c C) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%v", c)
	})
	b.WriteByte('}')
	return b.String()
}
