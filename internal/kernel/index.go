package kernel

// The spatial index over live components. An event changes one
// component's polygon, but two pieces of bookkeeping around it need the
// components near it: the disabled union must OR back every polygon that
// overlaps one the event removed, and the 3-D cuboid block model must
// re-fill every cuboid that overlaps the one a repair shrank. A bucket
// grid over the mesh's axes answers both with the boxes near the query
// instead of a walk over every live component.

import "math/bits"

// maxAxes is the largest Topology.Axes value a Box describes.
const maxAxes = 3

// maxBuckets bounds a BoxIndex's bucket table: the cell side grows with
// the mesh so the table stays this small (64² cells in 2-D, 16³ in 3-D for
// a mesh at least that many nodes wide).
const maxBuckets = 4096

// Box is an axis-aligned box of mesh positions: Lo[a]..Hi[a], inclusive,
// on every axis a of the topology. Axes the topology does not have hold
// 0..0, so one representation serves 2-D and 3-D. A component's box and
// its polygon's box are the same, since the closure never leaves the
// component's bounding box. Positions are int32 (mesh sides are far
// below 2³¹) so the index's per-component slot table stays small.
type Box struct{ Lo, Hi [maxAxes]int32 }

// EmptyBox returns the box containing nothing, the identity of Union.
func EmptyBox() Box { return Box{Lo: [maxAxes]int32{1}} }

// Empty reports whether the box contains nothing.
func (b Box) Empty() bool { return b.Lo[0] > b.Hi[0] }

// PointBox returns the box holding the single node c.
func PointBox[C any, T Topology[C]](t T, c C) Box {
	var b Box
	for a := 0; a < t.Axes(); a++ {
		b.Lo[a] = int32(t.AxisPos(a, c))
		b.Hi[a] = b.Lo[a]
	}
	return b
}

// Union returns the smallest box containing both boxes.
func (b Box) Union(o Box) Box {
	switch {
	case b.Empty():
		return o
	case o.Empty():
		return b
	}
	for a := range b.Lo {
		b.Lo[a] = min(b.Lo[a], o.Lo[a])
		b.Hi[a] = max(b.Hi[a], o.Hi[a])
	}
	return b
}

// Overlaps reports whether the boxes share a node.
func (b Box) Overlaps(o Box) bool {
	for a := range b.Lo {
		if max(b.Lo[a], o.Lo[a]) > min(b.Hi[a], o.Hi[a]) {
			return false
		}
	}
	return true
}

// Intersect returns the nodes both boxes hold, as a box (EmptyBox when
// they are disjoint).
func (b Box) Intersect(o Box) Box {
	if !b.Overlaps(o) {
		return EmptyBox()
	}
	for a := range b.Lo {
		b.Lo[a] = max(b.Lo[a], o.Lo[a])
		b.Hi[a] = min(b.Hi[a], o.Hi[a])
	}
	return b
}

// Bounds returns the smallest box holding every node of the set
// (EmptyBox for an empty set). It walks the set's words directly, so it
// allocates nothing, and splits each index into axis positions by the
// row-major contract (AxisStride): one division per axis but the last.
func (s *Set[C, T]) Bounds() Box {
	b := EmptyBox()
	if s.n == 0 {
		return b
	}
	last := s.topo.Axes() - 1
	var length, lo, hi [maxAxes]int
	for a := 0; a <= last; a++ {
		length[a] = s.topo.AxisLen(a)
		lo[a], hi[a] = length[a], -1
	}
	for k, w := range s.words {
		for w != 0 {
			q := (s.off+k)<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			for a := 0; a < last; a++ {
				p := q % length[a]
				q /= length[a]
				lo[a] = min(lo[a], p)
				hi[a] = max(hi[a], p)
			}
			lo[last] = min(lo[last], q)
			hi[last] = max(hi[last], q)
		}
	}
	for a := 0; a <= last; a++ {
		b.Lo[a], b.Hi[a] = int32(lo[a]), int32(hi[a])
	}
	return b
}

// BoxIndex holds a set of boxes over one topology, each under a slot
// number, and finds the boxes that overlap a query box. It is a uniform
// bucket grid: each axis is cut into cells whose side (a power of two) is
// derived from the mesh so the grid has at most maxBuckets buckets, and
// each bucket lists the slots of the boxes that reach into it. A query
// visits the buckets its box covers, so its cost follows the boxes near
// the query, not how many boxes the index holds.
//
// Callers keep the slot of each box they insert (the engine stores it in
// its cache entry), so the index needs no key lookup. The bucket table is
// allocated with the first box, and bucket lists and the slot table keep
// their capacity when boxes leave, so steady-state churn allocates
// nothing. A BoxIndex is not safe for concurrent use; the engine mutates
// and queries its index only under its lock.
type BoxIndex struct {
	shift   [maxAxes]uint // cell side along each axis is 1<<shift
	cells   [maxAxes]int  // cells along each axis (1 on absent axes)
	buckets [][]int32     // row-major over cells; each lists slots
	boxes   []Box         // by slot; free slots hold EmptyBox
	free    []int32
	visits  uint64 // bucket members examined by queries, not yet taken
}

// NewBoxIndex returns an empty index over the topology's axes.
func NewBoxIndex[C any, T Topology[C]](t T) *BoxIndex {
	axes := t.Axes()
	per := 1 // largest cell count per axis with per^axes <= maxBuckets
	for pow(per+1, axes) <= maxBuckets {
		per++
	}
	x := &BoxIndex{}
	for a := 0; a < maxAxes; a++ {
		x.cells[a] = 1
		if a < axes {
			n := t.AxisLen(a)
			for (n-1)>>x.shift[a]+1 > per {
				x.shift[a]++
			}
			x.cells[a] = (n-1)>>x.shift[a] + 1
		}
	}
	return x
}

// table allocates the bucket table on first use, so an engine that never
// holds a fault never pays for it.
func (x *BoxIndex) table() {
	if x.buckets == nil {
		x.buckets = make([][]int32, x.cells[0]*x.cells[1]*x.cells[2])
	}
}

// pow returns b**e for small non-negative exponents.
func pow(b, e int) int {
	r := 1
	for ; e > 0; e-- {
		r *= b
	}
	return r
}

// cellRange returns the cell range [lo, hi] a box covers on each axis.
func (x *BoxIndex) cellRange(b Box) (lo, hi [maxAxes]int) {
	for a := range lo {
		lo[a] = int(b.Lo[a]) >> x.shift[a]
		hi[a] = int(b.Hi[a]) >> x.shift[a]
	}
	return lo, hi
}

// bucket returns the bucket index of a cell.
func (x *BoxIndex) bucket(c0, c1, c2 int) int {
	return (c2*x.cells[1]+c1)*x.cells[0] + c0
}

// Len returns how many boxes the index holds.
func (x *BoxIndex) Len() int { return len(x.boxes) - len(x.free) }

// Box returns the box stored under slot.
func (x *BoxIndex) Box(slot int32) Box { return x.boxes[slot] }

// Insert adds a non-empty box and returns its slot.
func (x *BoxIndex) Insert(b Box) int32 {
	var slot int32
	if n := len(x.free); n > 0 {
		slot = x.free[n-1]
		x.free = x.free[:n-1]
		x.boxes[slot] = b
	} else {
		slot = int32(len(x.boxes))
		x.boxes = append(x.boxes, b)
	}
	x.table()
	lo, hi := x.cellRange(b)
	for c2 := lo[2]; c2 <= hi[2]; c2++ {
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c0 := lo[0]; c0 <= hi[0]; c0++ {
				k := x.bucket(c0, c1, c2)
				x.buckets[k] = append(x.buckets[k], slot)
			}
		}
	}
	return slot
}

// Remove drops the box under slot; the slot is reused by a later Insert.
func (x *BoxIndex) Remove(slot int32) {
	lo, hi := x.cellRange(x.boxes[slot])
	for c2 := lo[2]; c2 <= hi[2]; c2++ {
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c0 := lo[0]; c0 <= hi[0]; c0++ {
				k := x.bucket(c0, c1, c2)
				list := x.buckets[k]
				for i, s := range list {
					if s == slot {
						list[i] = list[len(list)-1]
						x.buckets[k] = list[:len(list)-1]
						break
					}
				}
			}
		}
	}
	x.boxes[slot] = EmptyBox()
	x.free = append(x.free, slot)
}

// Load replaces the index's contents with boxes, which take slots 0 to
// len(boxes)-1 in order; the index keeps the slice as its slot table. It
// is the bulk counterpart of one Insert per box: one pass counts each
// bucket's members and a second fills them into one shared array (a CSR
// layout), so the build allocates the array once instead of growing every
// bucket.
func (x *BoxIndex) Load(boxes []Box) {
	x.boxes = boxes
	x.free = x.free[:0]
	x.table()
	ends := make([]int32, len(x.buckets))
	for _, b := range boxes {
		lo, hi := x.cellRange(b)
		for c2 := lo[2]; c2 <= hi[2]; c2++ {
			for c1 := lo[1]; c1 <= hi[1]; c1++ {
				for c0 := lo[0]; c0 <= hi[0]; c0++ {
					ends[x.bucket(c0, c1, c2)]++
				}
			}
		}
	}
	total := int32(0)
	for k, n := range ends {
		total += n
		ends[k] = total
	}
	members := make([]int32, total)
	start := int32(0)
	for k, end := range ends {
		x.buckets[k] = members[start:start:end]
		start = end
	}
	for slot, b := range boxes {
		lo, hi := x.cellRange(b)
		for c2 := lo[2]; c2 <= hi[2]; c2++ {
			for c1 := lo[1]; c1 <= hi[1]; c1++ {
				for c0 := lo[0]; c0 <= hi[0]; c0++ {
					k := x.bucket(c0, c1, c2)
					x.buckets[k] = append(x.buckets[k], int32(slot))
				}
			}
		}
	}
}

// Query appends to out the slot of every stored box that overlaps q, each
// once, and returns the extended slice. A box that spans several of the
// visited buckets is reported only from the bucket holding the first
// node it shares with q, so no visited-set is needed.
func (x *BoxIndex) Query(q Box, out []int32) []int32 {
	if q.Empty() || x.buckets == nil {
		return out
	}
	lo, hi := x.cellRange(q)
	for c2 := lo[2]; c2 <= hi[2]; c2++ {
		for c1 := lo[1]; c1 <= hi[1]; c1++ {
			for c0 := lo[0]; c0 <= hi[0]; c0++ {
				list := x.buckets[x.bucket(c0, c1, c2)]
				x.visits += uint64(len(list))
				for _, slot := range list {
					b := &x.boxes[slot]
					if !b.Overlaps(q) ||
						int(max(b.Lo[0], q.Lo[0]))>>x.shift[0] != c0 ||
						int(max(b.Lo[1], q.Lo[1]))>>x.shift[1] != c1 ||
						int(max(b.Lo[2], q.Lo[2]))>>x.shift[2] != c2 {
						continue
					}
					out = append(out, slot)
				}
			}
		}
	}
	return out
}

// takeVisits returns the bucket members queries examined since the last
// call and resets the count.
func (x *BoxIndex) takeVisits() uint64 {
	v := x.visits
	x.visits = 0
	return v
}
