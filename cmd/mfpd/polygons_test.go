package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/shard"
)

// The reference encoder: the polygons reply as a reflected struct shape,
// so every polygonsWire output can be compared byte for byte with what
// encoding/json writes for the same view.

type xyz struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z"`
}

func toXYZ(c grid3.Coord) xyz { return xyz{c.X, c.Y, c.Z} }

type polygonReply[W any] struct {
	Faults  []W `json:"faults"`
	Polygon []W `json:"polygon"`
}

type polygonsReply[W any] struct {
	Version  uint64            `json:"version"`
	Polygons []polygonReply[W] `json:"polygons"`
}

// wireCoords lists a set's nodes in index order as wire coordinates.
func wireCoords[C any, T kernel.Topology[C], W any](set *kernel.Set[C, T], wire func(C) W) []W {
	out := make([]W, 0, set.Len())
	set.Each(func(c C) { out = append(out, wire(c)) })
	return out
}

// referencePolygons encodes v's polygons reply through encoding/json.
func referencePolygons[C any, T kernel.Topology[C], W any](v shard.View[C, T], wire func(C) W) []byte {
	snap := v.Snapshot
	reply := polygonsReply[W]{Version: v.Version, Polygons: make([]polygonReply[W], len(snap.Polygons()))}
	for i, poly := range snap.Polygons() {
		reply.Polygons[i] = polygonReply[W]{
			Faults:  wireCoords(snap.Components()[i], wire),
			Polygon: wireCoords(poly, wire),
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reply); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// getPolygons serves one polygons GET through h and returns the body,
// checking the status and that Content-Length matches it.
func getPolygons(t testing.TB, h http.Handler, mesh string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/meshes/"+mesh+"/polygons", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("polygons %s: status %d: %s", mesh, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("polygons %s: Content-Length %q for a %d-byte body", mesh, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// fragments reads the mfpd_polygons_fragments_total counter (no test in
// this package calls t.Parallel, so deltas are exact).
func fragments(outcome string) uint64 {
	v, _ := obs.Default.Value("mfpd_polygons_fragments_total", outcome)
	return uint64(v)
}

// checkPolygons GETs the mesh's polygons twice and compares both bodies
// with the reference encoding of the shard's current view; the repeat GET
// at the same version must be served from the memo without touching a
// fragment.
func checkPolygons[C any, T kernel.Topology[C], W any](t testing.TB, h http.Handler, sh *shard.Shard[C, T], wire func(C) W) {
	t.Helper()
	got := getPolygons(t, h, sh.Name())
	v, err := sh.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := referencePolygons(v, wire); !bytes.Equal(got, want) {
		t.Fatalf("%s at version %d:\n got %s\nwant %s", sh.Mesh(), v.Version, got, want)
	}
	reused, encoded := fragments("reused"), fragments("encoded")
	if again := getPolygons(t, h, sh.Name()); !bytes.Equal(again, got) {
		t.Fatalf("%s: repeat GET at version %d differs:\n got %s\nwant %s", sh.Mesh(), v.Version, again, got)
	}
	if fragments("reused") != reused || fragments("encoded") != encoded {
		t.Fatalf("%s: repeat GET at version %d touched fragments", sh.Mesh(), v.Version)
	}
}

// randomBatch draws a batch of add/clear events over mesh, biased towards
// adds so components grow, merge and split.
func randomBatch[C any, T kernel.Topology[C]](rng *rand.Rand, mesh T, n int) []kernel.Event[C] {
	events := make([]kernel.Event[C], n)
	for i := range events {
		op := kernel.Add
		if rng.Intn(3) == 0 {
			op = kernel.Clear
		}
		events[i] = kernel.Event[C]{Op: op, Node: mesh.CoordAt(rng.Intn(mesh.Size()))}
	}
	return events
}

// TestPolygonsMatchReference drives random churn on a small 2-D and a
// small 3-D mesh and, after every batch, compares the polygons body with
// the encoding/json reference, starting from the empty mesh.
func TestPolygonsMatchReference(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	flat, err := mgr.Create("flat", grid.New(16, 12))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := mgr.Create3("cube", grid3.New(6, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(mgr)
	if got := string(getPolygons(t, h, "flat")); got != `{"version":0,"polygons":[]}`+"\n" {
		t.Fatalf("empty mesh: %q", got)
	}
	rng := rand.New(rand.NewSource(1))
	for batch := 0; batch < 120; batch++ {
		if _, err := flat.Apply(randomBatch[grid.Coord](rng, flat.Mesh(), 1+rng.Intn(6))); err != nil {
			t.Fatal(err)
		}
		checkPolygons(t, h, flat, toXY)
		if _, err := cube.Apply(randomBatch[grid3.Coord](rng, cube.Mesh(), 1+rng.Intn(6))); err != nil {
			t.Fatal(err)
		}
		checkPolygons(t, h, cube, toXYZ)
	}
}

// TestPolygonsAcrossEviction: with one resident engine and two meshes,
// every access evicts the other mesh, so each GET follows a rebuild whose
// sets are all new. The body must still match the reference, and a GET
// after a rebuild must encode every fragment (the memo went with the
// evicted engine).
func TestPolygonsAcrossEviction(t *testing.T) {
	mgr := shard.NewManager(shard.Config{MaxResident: 1})
	defer mgr.Close()
	a, err := mgr.Create("a", grid.New(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create3("b", grid3.New(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(mgr)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 30; round++ {
		if _, err := a.Apply(randomBatch[grid.Coord](rng, a.Mesh(), 4)); err != nil {
			t.Fatal(err)
		}
		checkPolygons(t, h, a, toXY)
		if _, err := b.Apply(randomBatch[grid3.Coord](rng, b.Mesh(), 4)); err != nil {
			t.Fatal(err)
		}
		checkPolygons(t, h, b, toXYZ)
	}
	if st := a.Stats(); st.Evictions == 0 || st.Rebuilds == 0 {
		t.Fatalf("mesh a was never evicted and rebuilt: %+v", st)
	}

	// A read-only round trip through eviction: a's next GET rebuilds it
	// at an unchanged version and must encode everything anew.
	deadline := time.Now().Add(10 * time.Second)
	for a.Stats().Resident {
		if time.Now().After(deadline) {
			t.Fatal("mesh a never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	reused, encoded := fragments("reused"), fragments("encoded")
	checkPolygons(t, h, a, toXY)
	n := uint64(len(mustRead(t, a).Snapshot.Components()))
	if fragments("encoded")-encoded != n || fragments("reused") != reused {
		t.Fatalf("GET after rebuild: %d encoded / %d reused, want %d / 0",
			fragments("encoded")-encoded, fragments("reused")-reused, n)
	}
}

// TestPolygonsConcurrentWithChurn races polygons GETs against event
// batches (run it under -race): every body a reader sees must be the
// reference encoding of the version it names.
func TestPolygonsConcurrentWithChurn(t *testing.T) {
	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	sh, err := mgr.Create("m", grid.New(20, 20))
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(mgr)

	want := map[uint64][]byte{0: referencePolygons(mustRead(t, sh), toXY)}
	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	seen := make([][][]byte, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/meshes/m/polygons", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("polygons: status %d", rec.Code)
					return
				}
				seen[r] = append(seen[r], rec.Body.Bytes())
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 60; batch++ {
		res, err := sh.Apply(randomBatch[grid.Coord](rng, sh.Mesh(), 1+rng.Intn(5)))
		if err != nil {
			t.Fatal(err)
		}
		want[res.View.Version] = referencePolygons(res.View, toXY)
	}
	close(done)
	wg.Wait()

	checked := 0
	for _, bodies := range seen {
		for _, body := range bodies {
			var head struct{ Version uint64 }
			if err := json.Unmarshal(body, &head); err != nil {
				t.Fatalf("reply is not JSON: %v: %s", err, body)
			}
			if w, ok := want[head.Version]; !ok || !bytes.Equal(body, w) {
				t.Fatalf("version %d:\n got %s\nwant %s", head.Version, body, w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no reader completed a GET")
	}
}

func mustRead[C any, T kernel.Topology[C]](t *testing.T, sh *shard.Shard[C, T]) shard.View[C, T] {
	t.Helper()
	v, err := sh.Read()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fuzzBatches turns fuzz input into event batches on mesh: each byte pair
// is one event — the first byte's low bit picks add or clear and its
// second bit ends the batch, the second byte picks the node.
func fuzzBatches[C any, T kernel.Topology[C]](mesh T, data []byte) [][]kernel.Event[C] {
	var batches [][]kernel.Event[C]
	var cur []kernel.Event[C]
	for i := 0; i+1 < len(data); i += 2 {
		op := kernel.Add
		if data[i]&1 != 0 {
			op = kernel.Clear
		}
		cur = append(cur, kernel.Event[C]{Op: op, Node: mesh.CoordAt(int(data[i+1]) % mesh.Size())})
		if data[i]&2 != 0 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// eventStream encodes a seeded random event stream in fuzzBatches' input
// format: n events, adds three times as likely as clears, a batch break
// after about one event in four.
func eventStream(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		ctl := byte(0)
		if rng.Intn(4) == 0 {
			ctl |= 1
		}
		if rng.Intn(4) == 0 {
			ctl |= 2
		}
		data = append(data, ctl, byte(rng.Intn(256)))
	}
	return data
}

// FuzzPolygonsReply replays arbitrary event streams on an 8×8 2-D and a
// 4×4×4 3-D mesh and, after every batch, compares the polygons body with
// the encoding/json reference (including a repeat GET from the memo).
func FuzzPolygonsReply(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(eventStream(seed, 40*int(seed)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mgr := shard.NewManager(shard.Config{})
		defer mgr.Close()
		flat, err := mgr.Create("flat", grid.New(8, 8))
		if err != nil {
			t.Fatal(err)
		}
		cube, err := mgr.Create3("cube", grid3.New(4, 4, 4))
		if err != nil {
			t.Fatal(err)
		}
		h := newServer(mgr)
		for _, batch := range fuzzBatches[grid.Coord](flat.Mesh(), data) {
			if _, err := flat.Apply(batch); err != nil {
				t.Fatal(err)
			}
			checkPolygons(t, h, flat, toXY)
		}
		for _, batch := range fuzzBatches[grid3.Coord](cube.Mesh(), data) {
			if _, err := cube.Apply(batch); err != nil {
				t.Fatal(err)
			}
			checkPolygons(t, h, cube, toXYZ)
		}
	})
}

// polygonsBench is one benchmark mesh, dimension-erased: each arm
// produces a polygons body of the current state, and touch changes k
// components.
type polygonsBench struct {
	reflect  func() []byte // encoding/json reference
	appender func() []byte // polygonsWire over every component, no memo
	memo     func() []byte // the served path: Shard.PolygonsBody
	touch    func(k int)
}

// newPolygonsBench fills a mesh with clustered faults (each fault lands
// next to an earlier one with probability 1/2, the shape of the
// end-to-end benchmark's clustered workloads) plus up to 64 single-fault
// components with two healthy rings around them, and binds the three
// arms. touch(k) toggles a neighbour of k of those singletons, so each
// call replaces exactly k components.
func newPolygonsBench[C any, T kernel.Topology[C], W any](b *testing.B, sh *shard.Shard[C, T], faults int, wire func(C) W) polygonsBench {
	mesh := sh.Mesh()
	rng := rand.New(rand.NewSource(1))
	set := kernel.NewSet[C](mesh)
	var placed []C
	var buf, ring []C
	for set.Len() < faults {
		c := mesh.CoordAt(rng.Intn(mesh.Size()))
		if len(placed) > 0 && rng.Intn(2) == 0 {
			buf = mesh.Adjacent(placed[rng.Intn(len(placed))], buf[:0])
			c = buf[rng.Intn(len(buf))]
		}
		if set.Add(c) {
			placed = append(placed, c)
		}
	}
	// Singletons: no fault within two adjacency steps of the cell, and no
	// two singletons' two-step neighbourhoods overlapping.
	var isolated []C
	taken := set.Clone()
	for i := 0; i < mesh.Size() && len(isolated) < 64; i += 97 {
		c := mesh.CoordAt(i)
		hood := append(ring[:0], c)
		for _, n := range mesh.Adjacent(c, buf[:0]) {
			hood = mesh.Adjacent(n, append(hood, n))
		}
		ring = hood
		free := true
		for _, n := range hood {
			free = free && !taken.Has(n)
		}
		if free {
			isolated = append(isolated, c)
			placed = append(placed, c)
			for _, n := range hood {
				taken.Add(n)
			}
		}
	}
	if len(isolated) < 16 {
		b.Fatalf("%v: only %d isolated singletons", mesh, len(isolated))
	}
	events := make([]kernel.Event[C], 0, len(placed))
	for _, c := range placed {
		events = append(events, kernel.Event[C]{Op: kernel.Add, Node: c})
	}
	if _, err := sh.Apply(events); err != nil {
		b.Fatal(err)
	}
	on := make([]bool, len(isolated))
	next := 0
	view := func() shard.View[C, T] {
		v, err := sh.Read()
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	return polygonsBench{
		reflect: func() []byte { return referencePolygons(view(), wire) },
		appender: func() []byte {
			v := view()
			enc := polygonsWire[C, T]{}
			body := enc.Head(nil, v)
			for i, comp := range v.Snapshot.Components() {
				if i > 0 {
					body = enc.Sep(body)
				}
				body = enc.Fragment(body, comp, v.Snapshot.Polygons()[i])
			}
			return enc.Tail(body)
		},
		memo: func() []byte {
			body, _, err := sh.PolygonsBody(polygonsWire[C, T]{})
			if err != nil {
				b.Fatal(err)
			}
			return body
		},
		touch: func(k int) {
			batch := make([]kernel.Event[C], k)
			for i := range batch {
				j := next % len(isolated)
				next++
				op := kernel.Add
				if on[j] {
					op = kernel.Clear
				}
				on[j] = !on[j]
				batch[i] = kernel.Event[C]{Op: op, Node: mesh.Adjacent(isolated[j], buf[:0])[0]}
			}
			if _, err := sh.Apply(batch); err != nil {
				b.Fatal(err)
			}
		},
	}
}

var polygonsSink []byte

// BenchmarkPolygonsReply times building one polygons body on the two
// sizing meshes, three ways: encoding/json over the reflected reply
// shape, the appender over every component, and the served path (the
// appender behind the per-component memo) after k touched components.
// The memo arm's timer covers only the GET; the k-component event batch
// before it runs with the timer stopped. Run with -benchmem.
func BenchmarkPolygonsReply(b *testing.B) {
	mgr := shard.NewManager(shard.Config{})
	defer mgr.Close()
	cube, err := mgr.Create3("cube", grid3.New(64, 64, 64))
	if err != nil {
		b.Fatal(err)
	}
	flat, err := mgr.Create("flat", grid.New(512, 512))
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		pb   polygonsBench
	}{
		{"mesh64x64x64/faults2600", newPolygonsBench(b, cube, 2600, toXYZ)},
		{"mesh512x512/faults1300", newPolygonsBench(b, flat, 1300, toXY)},
	} {
		pb := m.pb
		if !bytes.Equal(pb.appender(), pb.reflect()) || !bytes.Equal(pb.memo(), pb.reflect()) {
			b.Fatalf("%s: arms disagree", m.name)
		}
		size := int64(len(pb.reflect()))
		b.Run(m.name+"/json", func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				polygonsSink = pb.reflect()
			}
		})
		b.Run(m.name+"/appender", func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				polygonsSink = pb.appender()
			}
		})
		for _, k := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/memo/touched%d", m.name, k), func(b *testing.B) {
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					pb.touch(k)
					b.StartTimer()
					polygonsSink = pb.memo()
				}
			})
		}
	}
}
