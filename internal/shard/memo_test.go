package shard

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// listEncoder is a polygons format for tests: "v<version>[" then each
// component as "<faults>/<polygon>" joined by ";", then "]". head, when
// set, runs at the start of every build.
type listEncoder struct{ head func() }

func (e listEncoder) Head(dst []byte, v View[grid.Coord, grid.Mesh]) []byte {
	if e.head != nil {
		e.head()
	}
	return append(strconv.AppendUint(append(dst, 'v'), v.Version, 10), '[')
}

func (listEncoder) Fragment(dst []byte, comp, poly *kernel.Set[grid.Coord, grid.Mesh]) []byte {
	return append(append(append(dst, comp.String()...), '/'), poly.String()...)
}

func (listEncoder) Sep(dst []byte) []byte  { return append(dst, ';') }
func (listEncoder) Tail(dst []byte) []byte { return append(dst, ']') }

// listBody is what listEncoder must produce for v, built from scratch.
func listBody(v View[grid.Coord, grid.Mesh]) []byte {
	var enc listEncoder
	body := enc.Head(nil, v)
	for i, comp := range v.Snapshot.Components() {
		if i > 0 {
			body = enc.Sep(body)
		}
		body = enc.Fragment(body, comp, v.Snapshot.Polygons()[i])
	}
	return enc.Tail(body)
}

// fragmentCounts reads mfpd_polygons_fragments_total (no test in this
// package calls t.Parallel, so deltas are exact).
func fragmentCounts() (reused, encoded uint64) {
	r, _ := obs.Default.Value("mfpd_polygons_fragments_total", "reused")
	e, _ := obs.Default.Value("mfpd_polygons_fragments_total", "encoded")
	return uint64(r), uint64(e)
}

// polygonsBody reads s's polygons body with listEncoder, checks it against
// a from-scratch build, and returns it with the fragments it reused and
// encoded.
func polygonsBodyOf(t *testing.T, s *Shard[grid.Coord, grid.Mesh]) (body []byte, reused, encoded uint64) {
	t.Helper()
	r0, e0 := fragmentCounts()
	body, v, err := s.PolygonsBody(listEncoder{})
	if err != nil {
		t.Fatal(err)
	}
	if want := listBody(v); !bytes.Equal(body, want) {
		t.Fatalf("version %d:\n got %s\nwant %s", v.Version, body, want)
	}
	r1, e1 := fragmentCounts()
	return body, r1 - r0, e1 - e0
}

// TestPolygonsMemoReencodesTouchedOnly: after an event batch, the next
// polygons body re-encodes exactly the components the batch replaced and
// copies every other fragment; a repeat read at the same version touches
// none.
func TestPolygonsMemoReencodesTouchedOnly(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("a", grid.New(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	// Six components: four singletons, a pair, and a singleton two steps
	// from the pair's end.
	if _, err := s.Apply([]engine.Event{add(2, 2), add(10, 2), add(20, 2), add(2, 10), add(10, 10), add(11, 10), add(13, 10)}); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name            string
		events          []engine.Event
		reused, encoded uint64
	}{
		{"first read", nil, 0, 6},
		{"grow one component", []engine.Event{add(3, 3)}, 5, 1},
		{"new component", []engine.Event{add(26, 26)}, 6, 1},
		{"merge two", []engine.Event{add(12, 10)}, 5, 1},
		{"split one", []engine.Event{clear(12, 10)}, 5, 2},
		{"two far apart", []engine.Event{add(21, 2), add(2, 11)}, 5, 2},
		{"remove one", []engine.Event{clear(26, 26)}, 6, 0},
	}
	for _, st := range steps {
		if st.events != nil {
			if _, err := s.Apply(st.events); err != nil {
				t.Fatal(err)
			}
		}
		body, reused, encoded := polygonsBodyOf(t, s)
		if reused != st.reused || encoded != st.encoded {
			t.Fatalf("%s: %d reused / %d encoded, want %d / %d", st.name, reused, encoded, st.reused, st.encoded)
		}
		again, reused, encoded := polygonsBodyOf(t, s)
		if reused != 0 || encoded != 0 || &again[0] != &body[0] {
			t.Fatalf("%s: repeat read rebuilt the body (%d reused / %d encoded)", st.name, reused, encoded)
		}
	}
}

// TestPolygonsMemoDroppedOnEviction: eviction drops the memoized body
// with the engine, so the evicted mesh pins none of its sets; the next
// read rebuilds the engine and encodes every component anew, to the same
// bytes.
func TestPolygonsMemoDroppedOnEviction(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	defer m.Close()
	mesh := grid.New(16, 16)
	a, err := m.Create("a", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply([]engine.Event{add(5, 5), add(6, 6), add(12, 3)}); err != nil {
		t.Fatal(err)
	}
	before, _, _ := polygonsBodyOf(t, a)
	if a.bodies.cur.Load() == nil {
		t.Fatal("body not memoized")
	}

	b, err := m.Create("b", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Stats().Evictions == 1 })
	if a.bodies.cur.Load() != nil {
		t.Fatal("eviction kept the memoized body")
	}

	after, reused, encoded := polygonsBodyOf(t, a)
	if reused != 0 || encoded != 2 {
		t.Fatalf("read after eviction: %d reused / %d encoded, want 0 / 2", reused, encoded)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("body changed across eviction:\n got %s\nwant %s", after, before)
	}
}

// TestPolygonsMemoDroppedOnFailure: a failure latch drops the memoized
// body, and reads fail with the latched error instead of serving it.
func TestPolygonsMemoDroppedOnFailure(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Create("poisoned", grid.New(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	polygonsBodyOf(t, s)
	poison(s, grid.XY(5, 5))
	if _, err := s.Apply([]engine.Event{clear(5, 5)}); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("divergent apply: got %v, want ErrShardFailed", err)
	}
	if s.bodies.cur.Load() != nil {
		t.Fatal("failure latch kept the memoized body")
	}
	if _, _, err := s.PolygonsBody(listEncoder{}); !errors.Is(err, ErrShardFailed) {
		t.Fatalf("polygons after latch: got %v, want ErrShardFailed", err)
	}
}

// TestPolygonsMemoBuildAcrossEviction: a build that was in flight when
// the mesh was evicted still answers its read, but is not cached — the
// store would pin the memory the eviction reclaimed.
func TestPolygonsMemoBuildAcrossEviction(t *testing.T) {
	m := NewManager(Config{MaxResident: 1})
	defer m.Close()
	mesh := grid.New(16, 16)
	a, err := m.Create("a", mesh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create("b", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Apply([]engine.Event{add(5, 5), add(9, 9)}); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	enc := listEncoder{head: func() {
		close(entered)
		<-release
	}}
	type reply struct {
		body []byte
		v    View[grid.Coord, grid.Mesh]
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		body, v, err := a.PolygonsBody(enc)
		done <- reply{body, v, err}
	}()
	<-entered
	// a's last admission marked b; once b is gone, b's next event
	// rebuilds b and evicts a under the build.
	waitFor(t, func() bool { return !b.Stats().Resident })
	evictions := a.Stats().Evictions
	if _, err := b.Apply([]engine.Event{add(1, 1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Stats().Evictions == evictions+1 })
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if want := listBody(r.v); !bytes.Equal(r.body, want) {
		t.Fatalf("in-flight build:\n got %s\nwant %s", r.body, want)
	}
	if a.bodies.cur.Load() != nil {
		t.Fatal("a build in flight across the eviction was cached")
	}
}

// TestMemoKeepsNewestVersion: a stale reader's build (an older version
// than the memoized one) answers its caller without replacing the entry.
func TestMemoKeepsNewestVersion(t *testing.T) {
	var m memo[string]
	if v, hit := m.get(m.epoch.Load(), 5, func(string) string { return "five" }); hit || v != "five" {
		t.Fatalf("first get: %q hit=%v", v, hit)
	}
	var prev string
	if v, hit := m.get(m.epoch.Load(), 4, func(p string) string { prev = p; return "four" }); hit || v != "four" {
		t.Fatalf("stale get: %q hit=%v", v, hit)
	}
	if prev != "five" {
		t.Fatalf("build saw previous value %q, want five", prev)
	}
	if v, hit := m.get(m.epoch.Load(), 5, func(string) string { return "rebuilt" }); !hit || v != "five" {
		t.Fatalf("newest entry replaced: %q hit=%v", v, hit)
	}
}
