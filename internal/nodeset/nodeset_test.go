package nodeset

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func c(x, y int) grid.Coord { return grid.Coord{X: x, Y: y} }

func TestAddHasRemove(t *testing.T) {
	m := grid.New(8, 8)
	s := New(m)
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("new set should be empty")
	}
	if !s.Add(c(3, 4)) {
		t.Fatal("first Add should report change")
	}
	if s.Add(c(3, 4)) {
		t.Fatal("second Add should report no change")
	}
	if !s.Has(c(3, 4)) || s.Len() != 1 {
		t.Fatal("Has/Len wrong after Add")
	}
	if s.Has(c(4, 3)) {
		t.Fatal("Has reported absent node")
	}
	if !s.Remove(c(3, 4)) {
		t.Fatal("Remove should report change")
	}
	if s.Remove(c(3, 4)) {
		t.Fatal("second Remove should report no change")
	}
	if s.Len() != 0 {
		t.Fatal("Len after remove")
	}
}

func TestHasOutsideMeshIsFalse(t *testing.T) {
	s := New(grid.New(4, 4))
	if s.Has(c(-1, 0)) || s.Has(c(4, 0)) || s.Has(c(0, 4)) {
		t.Fatal("outside coordinates must read as absent")
	}
	if s.Remove(c(-1, 0)) {
		t.Fatal("removing an outside coordinate is a no-op")
	}
}

func TestFromCoordsAndCoords(t *testing.T) {
	m := grid.New(8, 8)
	s := FromCoords(m, c(2, 4), c(3, 4), c(4, 3))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	got := s.Coords()
	if len(got) != 3 {
		t.Fatalf("Coords len = %d", len(got))
	}
	if s.String() != "{(4,3) (2,4) (3,4)}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSetAlgebra(t *testing.T) {
	m := grid.New(10, 10)
	a := FromCoords(m, c(0, 0), c(1, 0), c(2, 0))
	b := FromCoords(m, c(2, 0), c(3, 0))

	if got := Union(a, b); got.Len() != 4 || !got.Has(c(3, 0)) {
		t.Errorf("Union wrong: %v", got)
	}
	if got := Intersect(a, b); got.Len() != 1 || !got.Has(c(2, 0)) {
		t.Errorf("Intersect wrong: %v", got)
	}
	if got := Subtract(a, b); got.Len() != 2 || got.Has(c(2, 0)) {
		t.Errorf("Subtract wrong: %v", got)
	}
	if !a.ContainsAll(FromCoords(m, c(0, 0))) {
		t.Error("ContainsAll subset failed")
	}
	if a.ContainsAll(b) {
		t.Error("ContainsAll should fail: b has (3,0)")
	}
	if a.Disjoint(b) {
		t.Error("a and b share (2,0)")
	}
	if !a.Disjoint(FromCoords(m, c(9, 9))) {
		t.Error("Disjoint failed on disjoint sets")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := grid.New(4, 4)
	a := FromCoords(m, c(1, 1))
	b := a.Clone()
	b.Add(c(2, 2))
	if a.Has(c(2, 2)) {
		t.Fatal("Clone is not independent")
	}
	if !b.Has(c(1, 1)) {
		t.Fatal("Clone lost a node")
	}
}

func TestEqual(t *testing.T) {
	m := grid.New(4, 4)
	a := FromCoords(m, c(1, 1), c(2, 2))
	b := FromCoords(m, c(2, 2), c(1, 1))
	if !a.Equal(b) {
		t.Fatal("equal sets reported unequal")
	}
	b.Add(c(0, 0))
	if a.Equal(b) {
		t.Fatal("unequal sets reported equal")
	}
	other := FromCoords(grid.New(5, 5), c(1, 1), c(2, 2))
	if a.Equal(other) {
		t.Fatal("sets over different meshes must be unequal")
	}
}

func TestDifferentMeshPanics(t *testing.T) {
	a := New(grid.New(4, 4))
	b := New(grid.New(5, 5))
	defer func() {
		if recover() == nil {
			t.Fatal("UnionWith across meshes should panic")
		}
	}()
	a.UnionWith(b)
}

func TestBounds(t *testing.T) {
	m := grid.New(10, 10)
	if !Bounds(New(m)).Empty() {
		t.Fatal("empty set bounds should be empty")
	}
	s := FromCoords(m, c(2, 4), c(3, 4), c(4, 3))
	want := grid.Rect{MinX: 2, MinY: 3, MaxX: 4, MaxY: 4}
	if got := Bounds(s); got != want {
		t.Fatalf("Bounds = %v, want %v", got, want)
	}
}

// TestBoundsMatchesPerNode pins the word-walking Bounds against its
// per-node definition (the rectangle extended by every node) on empty,
// single-node and random sets, on meshes and tori whose widths do and do
// not fill whole words.
func TestBoundsMatchesPerNode(t *testing.T) {
	perNode := func(s *Set) grid.Rect {
		r := grid.EmptyRect()
		s.Each(func(c grid.Coord) { r = r.Extend(c) })
		return r
	}
	rng := rand.New(rand.NewSource(3))
	for _, m := range []grid.Mesh{grid.New(1, 1), grid.New(10, 7), grid.New(64, 3), grid.New(67, 40), grid.NewTorus(13, 9), grid.NewTorus(64, 64)} {
		check := func(s *Set) {
			t.Helper()
			if got, want := Bounds(s), perNode(s); got != want {
				t.Fatalf("%v %v: Bounds = %+v, per-node %+v", m, s, got, want)
			}
		}
		check(New(m))
		for i := 0; i < m.Size(); i += 1 + m.Size()/17 {
			check(FromCoords(m, m.CoordAt(i)))
		}
		for trial := 0; trial < 50; trial++ {
			s := New(m)
			for k := rng.Intn(1 + m.Size()/4); k >= 0; k-- {
				s.Add(m.CoordAt(rng.Intn(m.Size())))
			}
			check(s)
		}
	}
}

func TestClear(t *testing.T) {
	m := grid.New(4, 4)
	s := FromCoords(m, c(0, 0), c(3, 3))
	s.Clear()
	if !s.Empty() || s.Has(c(0, 0)) {
		t.Fatal("Clear did not empty the set")
	}
}

func TestEachOrder(t *testing.T) {
	m := grid.New(4, 4)
	s := FromCoords(m, c(3, 0), c(0, 1), c(1, 0))
	var got []grid.Coord
	s.Each(func(cc grid.Coord) { got = append(got, cc) })
	want := []grid.Coord{c(1, 0), c(3, 0), c(0, 1)}
	if len(got) != len(want) {
		t.Fatalf("Each visited %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order: got %v, want %v", got, want)
		}
	}
}

func TestIndexOperations(t *testing.T) {
	m := grid.New(8, 8)
	s := New(m)
	if !s.AddIndex(10) || s.AddIndex(10) {
		t.Fatal("AddIndex change reporting wrong")
	}
	if !s.HasIndex(10) || s.HasIndex(11) {
		t.Fatal("HasIndex wrong")
	}
	if !s.Has(m.CoordAt(10)) {
		t.Fatal("AddIndex and Has disagree")
	}
}

// Property: cardinality tracking matches a reference map implementation
// under a random operation sequence.
func TestCardinalityMatchesReference(t *testing.T) {
	m := grid.New(16, 16)
	s := New(m)
	ref := map[grid.Coord]bool{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		cc := c(rng.Intn(m.W), rng.Intn(m.H))
		if rng.Intn(2) == 0 {
			s.Add(cc)
			ref[cc] = true
		} else {
			s.Remove(cc)
			delete(ref, cc)
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len=%d ref=%d", i, s.Len(), len(ref))
		}
	}
	for cc := range ref {
		if !s.Has(cc) {
			t.Fatalf("missing %v", cc)
		}
	}
}

// Property: De Morgan-ish identities on random sets.
func TestAlgebraProperties(t *testing.T) {
	m := grid.New(12, 12)
	gen := func(seed int64) *Set {
		rng := rand.New(rand.NewSource(seed))
		s := New(m)
		for i := 0; i < 40; i++ {
			s.Add(c(rng.Intn(m.W), rng.Intn(m.H)))
		}
		return s
	}
	f := func(seedA, seedB int64) bool {
		a, b := gen(seedA), gen(seedB)
		u := Union(a, b)
		i := Intersect(a, b)
		// |A∪B| + |A∩B| == |A| + |B|
		if u.Len()+i.Len() != a.Len()+b.Len() {
			return false
		}
		// (A∪B)\B ⊆ A and disjoint from B
		d := Subtract(u, b)
		return a.ContainsAll(d) && d.Disjoint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFirstIndex(t *testing.T) {
	m := grid.New(12, 12)
	s := New(m)
	if got := s.FirstIndex(); got != -1 {
		t.Fatalf("empty set FirstIndex = %d, want -1", got)
	}
	s.Add(c(7, 9))
	s.Add(c(3, 2))
	s.Add(c(11, 2))
	if want := m.Index(c(3, 2)); s.FirstIndex() != want {
		t.Fatalf("FirstIndex = %d, want %d", s.FirstIndex(), want)
	}
	s.Remove(c(3, 2))
	if want := m.Index(c(11, 2)); s.FirstIndex() != want {
		t.Fatalf("after remove: FirstIndex = %d, want %d", s.FirstIndex(), want)
	}
}
