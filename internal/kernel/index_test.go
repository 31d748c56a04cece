package kernel_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

// randomBox draws a box of the mesh with sides up to span.
func randomBox[C any, T kernel.Topology[C]](rng *rand.Rand, m T, span int) kernel.Box {
	var b kernel.Box
	for a := 0; a < m.Axes(); a++ {
		n := m.AxisLen(a)
		lo := rng.Intn(n)
		b.Lo[a], b.Hi[a] = int32(lo), int32(min(n-1, lo+rng.Intn(span)))
	}
	return b
}

// checkQueries compares Query with a scan of the live boxes: every
// overlapping box is reported, and only once.
func checkQueries[C any, T kernel.Topology[C]](t *testing.T, rng *rand.Rand, m T, x *kernel.BoxIndex, live map[int32]kernel.Box) {
	t.Helper()
	var got []int32
	for q := 0; q < 20; q++ {
		query := randomBox(rng, m, 12)
		got = x.Query(query, got[:0])
		var want []int32
		for slot, b := range live {
			if b.Overlaps(query) {
				want = append(want, slot)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("query %v: got slots %v, want %v", query, got, want)
		}
	}
	if x.Len() != len(live) {
		t.Fatalf("index holds %d boxes, want %d", x.Len(), len(live))
	}
}

// indexChurn loads the index in bulk, then inserts and removes random
// boxes, checking queries against a scan throughout.
func indexChurn[C any, T kernel.Topology[C]](t *testing.T, m T) {
	rng := rand.New(rand.NewSource(int64(m.Size())))
	x := kernel.NewBoxIndex[C](m)
	live := make(map[int32]kernel.Box)
	boxes := make([]kernel.Box, 50)
	for i := range boxes {
		boxes[i] = randomBox(rng, m, 20)
		live[int32(i)] = boxes[i]
	}
	x.Load(boxes)
	checkQueries(t, rng, m, x, live)
	for step := 0; step < 400; step++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			for slot := range live {
				x.Remove(slot)
				delete(live, slot)
				break
			}
		} else {
			b := randomBox(rng, m, 20)
			slot := x.Insert(b)
			if _, dup := live[slot]; dup {
				t.Fatalf("slot %d handed out twice", slot)
			}
			live[slot] = b
			if x.Box(slot) != b {
				t.Fatalf("slot %d holds %v, inserted %v", slot, x.Box(slot), b)
			}
		}
		checkQueries(t, rng, m, x, live)
	}
}

func TestBoxIndex(t *testing.T) {
	indexChurn[grid.Coord](t, grid.New(100, 37))
	indexChurn[grid.Coord](t, grid.New(512, 512))
	indexChurn[grid.Coord](t, grid.New(1, 300))
	indexChurn[grid3.Coord](t, grid3.New(64, 64, 64))
	indexChurn[grid3.Coord](t, grid3.New(13, 7, 5))
}

// Bounds agrees with the box grown node by node.
func TestSetBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := grid3.New(67, 5, 9)
	for trial := 0; trial < 50; trial++ {
		s := kernel.NewSet[grid3.Coord](m)
		want := kernel.EmptyBox()
		if s.Bounds() != want {
			t.Fatalf("empty set bounds %v", s.Bounds())
		}
		for i := rng.Intn(30); i >= 0; i-- {
			c := m.CoordAt(rng.Intn(m.Size()))
			s.Add(c)
			want = want.Union(kernel.PointBox(m, c))
		}
		if got := s.Bounds(); got != want {
			t.Fatalf("bounds %v, want %v", got, want)
		}
	}
}
