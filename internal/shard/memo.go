package shard

import (
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
)

// memo caches one derived value per shard version: the routing planner,
// the encoded polygons reply. Readers at a cached version share the value
// through one atomic load; a miss builds it under mu, so concurrent
// readers at a new version wait for one build (single flight). Event churn
// moves the version and so invalidates the entry for free; eviction and
// failure latches drop it outright, and epoch (bumped by every drop)
// keeps a build that was in flight across the drop from re-caching the
// dropped snapshot's memory.
type memo[V any] struct {
	cur   atomic.Pointer[memoEntry[V]]
	mu    sync.Mutex
	epoch atomic.Uint64
}

type memoEntry[V any] struct {
	version uint64
	val     V
}

// get returns the value memoized for version, or builds it and reports a
// miss. epoch must be loaded before the caller read the view that version
// comes from. build receives the last memoized value (the zero V when
// there is none) — possibly of another version — so it can reuse parts of
// it.
func (m *memo[V]) get(epoch, version uint64, build func(prev V) V) (V, bool) {
	if e := m.cur.Load(); e != nil && e.version == version {
		return e.val, true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.cur.Load()
	if prev != nil && prev.version == version {
		// Built by a concurrent reader while we waited on the lock.
		return prev.val, true
	}
	var last V
	if prev != nil {
		last = prev.val
	}
	val := build(last)
	// Two reasons not to cache what we just built: never replace a newer
	// version's value with an older one (a stale reader racing a fresh
	// batch), and never re-cache across a drop that happened after the
	// caller's read — the store would pin the memory the eviction was
	// reclaiming. The caller still gets its version-consistent value either
	// way, it just isn't cached. The re-check after the store closes the
	// window in which a drop lands between the first check and the store.
	if m.epoch.Load() == epoch && (prev == nil || prev.version <= version) {
		e := &memoEntry[V]{version: version, val: val}
		m.cur.Store(e)
		if m.epoch.Load() != epoch {
			m.cur.CompareAndSwap(e, nil)
		}
	}
	return val, false
}

// drop forgets the memoized value and invalidates builds in flight.
func (m *memo[V]) drop() {
	m.epoch.Add(1)
	m.cur.Store(nil)
}

// PolygonsEncoder is the wire format of a polygons reply: a head, one
// fragment per faulty component joined by separators, and a tail. The
// shard owns only the assembly and the memo (see Shard.PolygonsBody), so
// the format stays with the server that speaks it. Every method appends
// to dst and returns the extended slice.
type PolygonsEncoder[C any, T kernel.Topology[C]] interface {
	// Head opens a reply for v; it may grow dst to the expected size.
	Head(dst []byte, v View[C, T]) []byte
	// Fragment encodes one component: its faulty nodes and its polygon,
	// both read-only. It must depend on nothing but the two sets, because
	// the bytes are reused for as long as the sets stay published.
	Fragment(dst []byte, comp, poly *kernel.Set[C, T]) []byte
	// Sep joins two fragments; Tail closes the reply.
	Sep(dst []byte) []byte
	Tail(dst []byte) []byte
}

// polygonsBody is one encoded polygons reply plus what the next version
// needs to reuse its fragments: the component and polygon sets it
// encoded, index-aligned with their seeds and the byte span of each
// fragment in body. A published set is immutable and its pointer
// identifies it (the engine replaces entries on every change, it never
// mutates them), so an unchanged pointer pair means unchanged bytes.
type polygonsBody[C any, T kernel.Topology[C]] struct {
	body  []byte
	comps []*kernel.Set[C, T]
	polys []*kernel.Set[C, T]
	seeds []int
	spans []span
}

type span struct{ lo, hi int }

// encodePolygons assembles the reply for v with enc, copying the
// fragments of components prev already encoded and encoding only the
// rest. Components come in seed order (Snapshot.Components), so one merge
// walk over prev's seeds finds each reusable fragment without a map.
func encodePolygons[C any, T kernel.Topology[C]](enc PolygonsEncoder[C, T], v View[C, T], prev *polygonsBody[C, T]) *polygonsBody[C, T] {
	comps, polys := v.Snapshot.Components(), v.Snapshot.Polygons()
	if prev == nil {
		prev = &polygonsBody[C, T]{}
	}
	out := &polygonsBody[C, T]{
		comps: comps,
		polys: polys,
		seeds: make([]int, len(comps)),
		spans: make([]span, len(comps)),
	}
	body := enc.Head(nil, v)
	var reused, encoded uint64
	j := 0
	for i, comp := range comps {
		seed := comp.FirstIndex()
		for j < len(prev.seeds) && prev.seeds[j] < seed {
			j++
		}
		if i > 0 {
			body = enc.Sep(body)
		}
		lo := len(body)
		if j < len(prev.seeds) && prev.comps[j] == comp && prev.polys[j] == polys[i] {
			sp := prev.spans[j]
			body = append(body, prev.body[sp.lo:sp.hi]...)
			reused++
		} else {
			body = enc.Fragment(body, comp, polys[i])
			encoded++
		}
		out.seeds[i] = seed
		out.spans[i] = span{lo, len(body)}
	}
	out.body = enc.Tail(body)
	shardMetrics.fragmentsReused.Add(reused)
	shardMetrics.fragmentsEncoded.Add(encoded)
	return out
}

// PolygonsBody returns the polygons reply for the shard's current view,
// encoded by enc, together with that view. The body is memoized per
// shard version like the planner: a repeat read at one version returns
// the stored bytes as they are, and the first read at a new version
// re-encodes only the components whose sets changed since the last
// memoized body. Nothing is encoded on the write path; the memo is built
// lazily here and dropped with the engine on eviction or a failure latch.
// Like Read, calling it on an evicted shard forces a rebuild.
//
// The returned body is shared and must not be modified. Every call on a
// shard must pass the same encoder: the memo reuses fragments across
// calls.
func (s *Shard[C, T]) PolygonsBody(enc PolygonsEncoder[C, T]) ([]byte, View[C, T], error) {
	epoch := s.bodies.epoch.Load()
	v, err := s.Read()
	if err != nil {
		return nil, View[C, T]{}, err
	}
	b, _ := s.bodies.get(epoch, v.Version, func(prev *polygonsBody[C, T]) *polygonsBody[C, T] {
		return encodePolygons(enc, v, prev)
	})
	return b.body, v, nil
}
