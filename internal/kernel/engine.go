package kernel

// The dimension-generic incremental engine. This is the paper's per-
// component machinery run under fault churn: a new fault only ever grows
// one component or merges a few neighbouring ones (the merge process of
// Section 3), and a repair only ever shrinks or splits the one component
// it belonged to — so the engine re-closes exactly the touched component
// and reuses every other component's cached polygon. internal/engine
// instantiates it for the paper's 2-D mesh (with the scheme-1 faulty-block
// fixpoint as the block model), internal/engine3 for 3-D meshes (with the
// bounding-cuboid block model); the maintenance logic lives only here.

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Op is the kind of a fault event.
type Op uint8

const (
	// Add marks a node faulty (a fault arrival).
	Add Op = iota
	// Clear marks a faulty node repaired (a fault departure).
	Clear
)

// String returns the wire name of the op ("add" or "clear").
func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Clear:
		return "clear"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp converts a wire name back to an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "add":
		return Add, nil
	case "clear":
		return Clear, nil
	}
	return 0, fmt.Errorf("engine: unknown op %q (want add or clear)", s)
}

// Event is one fault arrival or repair over coordinate type C. It is the
// unit of the batched event streams mfpd accepts; see MarshalJSON for the
// wire format.
type Event[C any] struct {
	Op   Op
	Node C
}

// String renders the event like "add(3,4)".
func (e Event[C]) String() string { return fmt.Sprintf("%s%v", e.Op, e.Node) }

// BlockModel maintains a topology's faulty-block ("unsafe") construction
// alongside the engine's polygons. The 2-D model is labelling scheme 1
// (rectangular faulty blocks kept at a fixpoint by local propagation); the
// 3-D analogue is the union of component bounding cuboids, maintained
// incrementally from per-component bounds. The engine calls Grow/Shrink
// under its lock right after the fault set changes, and Unsafe at snapshot
// publication.
//
// Grow and Shrink receive the touched components so stateful models can
// key per-component state by seed (Set.FirstIndex) instead of rescanning
// the component list. The component sets passed to them are owned by the
// engine and valid only for the duration of the call — unpublished sets
// are recycled into the scratch pool right after — so models must copy
// whatever they need (bounds, seeds) and never retain the sets.
type BlockModel[C any, T Topology[C]] interface {
	// Grow incorporates a fault arrival at c (already in the fault set).
	// merged lists the node sets of the components the arrival merged away
	// (empty when c seeds a new component) and result is the component
	// that replaced them, c included.
	Grow(c C, merged []*Set[C, T], result *Set[C, T])
	// Shrink incorporates a repair at c (already removed from the fault
	// set). removed is the node set of the component that contained c
	// (c still included) and fragments are the components it split into —
	// empty when c was the component's last fault.
	Shrink(c C, removed *Set[C, T], fragments []*Set[C, T])
	// Unsafe returns a fresh unsafe set for the current state. The result
	// is owned by the caller (it is published in an immutable snapshot).
	Unsafe() *Set[C, T]
}

// entry is the engine's cache line: one faulty component and its minimum
// faulty polygon (polytope). Both sets are immutable once the entry is
// built — churn replaces entries, it never mutates them — which is what
// lets snapshots share them. poly may be the same set as nodes when the
// component is already convex.
type entry[C any, T Topology[C]] struct {
	nodes *Set[C, T]
	poly  *Set[C, T]
	// seed is the component's smallest dense node index, the sort key that
	// keeps entries in the same deterministic order a from-scratch
	// component search would produce, so snapshots are byte-identical to a
	// full rebuild.
	seed int
	// published marks entries a snapshot has shared. Only unpublished
	// entries — created and replaced within one batch — may recycle their
	// sets into the scratch free list; published sets belong to snapshots
	// forever.
	published bool
}

// owner is the stable handle through which the fault index finds a
// fault's component. Entries are immutable and replaced on every change,
// so the index maps each fault to an owner and the owner to the current
// entry: a merge keeps the largest merged component's owner and relabels
// only the smaller components' faults, and a split keeps the owner for
// the largest fragment, so relabelling costs the smaller pieces, never
// the mesh or the component count.
type owner[C any, T Topology[C]] struct{ en *entry[C, T] }

// Engine maintains the fault-region constructions under a stream of fault
// events. All methods are safe for concurrent use: mutations serialize on
// an internal lock while Snapshot is wait-free.
type Engine[C any, T Topology[C]] struct {
	mesh    T
	metrics engineMetrics

	mu      sync.Mutex
	faults  *Set[C, T] // current fault set (mutated in place)
	blocks  BlockModel[C, T]
	entries []*entry[C, T] // sorted by seed
	version uint64         // counts applied (state-changing) events
	// owners maps every fault's dense index to its component's owner; it
	// holds exactly one key per fault.
	owners map[int]*owner[C, T]

	// Reusable working memory of the apply path, all guarded by mu: the
	// geometry scratch (flood bookkeeping, span tables, set free list) and
	// the small per-event buffers. Steady-state batches apply without
	// allocating; see BenchmarkEngineApplyAllocs.
	scr         *Scratch[C, T]
	neigh       []C
	merged      []*owner[C, T]
	mergedSets  []*Set[C, T]
	freeEntries []*entry[C, T]
	freeOwners  []*owner[C, T]
	// relabel points every index it is called with at relabelTo; it is
	// bound once so EachIndex walks do not allocate a closure per event.
	relabel   func(int)
	relabelTo *owner[C, T]

	snap atomic.Pointer[Snapshot[C, T]]
}

// NewEngine returns an engine over an empty fault set, with the given
// block-model factory (called with the engine's live fault set, which the
// model may read but must not mutate, and the engine's scratch, through
// which rasterizing models may recycle transient sets — pooled sets must
// be put back before the call returns, never stored). Topology
// restrictions — the 2-D engine rejects tori, for example — belong in the
// instantiating package's constructor.
func NewEngine[C any, T Topology[C]](mesh T, blocks func(T, *Set[C, T], *Scratch[C, T]) BlockModel[C, T]) (*Engine[C, T], error) {
	if mesh.Size() == 0 {
		return nil, fmt.Errorf("engine: empty mesh")
	}
	e := &Engine[C, T]{
		mesh:    mesh,
		metrics: newEngineMetrics(mesh.Axes()),
		faults:  NewSet[C](mesh),
		owners:  make(map[int]*owner[C, T]),
		scr:     NewScratch[C](mesh),
	}
	e.relabel = func(i int) { e.owners[i] = e.relabelTo }
	e.blocks = blocks(mesh, e.faults, e.scr)
	e.publish()
	return e, nil
}

// Mesh returns the mesh the engine maintains.
func (e *Engine[C, T]) Mesh() T { return e.mesh }

// AddFault marks node faulty and reports whether the state changed (false
// for a duplicate arrival). It panics when node lies outside the mesh; use
// Apply for validated event streams.
func (e *Engine[C, T]) AddFault(node C) bool {
	n, _, err := e.Apply([]Event[C]{{Op: Add, Node: node}})
	if err != nil {
		panic(err.Error())
	}
	return n == 1
}

// ClearFault marks node repaired and reports whether the state changed
// (false when the node was not faulty). It panics when node lies outside
// the mesh; use Apply for validated event streams.
func (e *Engine[C, T]) ClearFault(node C) bool {
	n, _, err := e.Apply([]Event[C]{{Op: Clear, Node: node}})
	if err != nil {
		panic(err.Error())
	}
	return n == 1
}

// ValidateEvents checks that every event lies inside the mesh and carries
// a known op, returning the first violation. Apply runs the same check on
// its whole batch; callers that coalesce independently submitted batches
// (internal/shard) validate each submission separately so one bad batch
// fails alone instead of failing its innocent neighbours.
func ValidateEvents[C any, T Topology[C]](m T, events []Event[C]) error {
	for _, ev := range events {
		if !m.Contains(ev.Node) {
			return fmt.Errorf("engine: %v outside %v", ev, m)
		}
		if ev.Op != Add && ev.Op != Clear {
			return fmt.Errorf("engine: invalid op %d", uint8(ev.Op))
		}
	}
	return nil
}

// Replay applies events to a plain fault set and returns how many changed
// it — the same counting semantics as Apply's applied result, without an
// engine. It is the shared reference walk: the shard layer uses it to keep
// its persisted fault sets (and per-submission counts) in lockstep with
// the engine, and the differential harnesses use it to maintain the
// expected state they verify engines against. Events with an invalid op
// are ignored, never misread as a Clear; run ValidateEvents first when
// they must be rejected instead.
func Replay[C any, T Topology[C]](faults *Set[C, T], events ...Event[C]) int {
	changed := 0
	for _, ev := range events {
		switch ev.Op {
		case Add:
			if faults.Add(ev.Node) {
				changed++
			}
		case Clear:
			if faults.Remove(ev.Node) {
				changed++
			}
		}
	}
	return changed
}

// Apply applies a batch of events atomically — concurrent readers observe
// either the snapshot before the whole batch or after it, never a prefix —
// and returns how many events changed the state (duplicate adds and clears
// of non-faulty nodes are no-ops that are skipped, not errors) together
// with the snapshot the batch produced. The snapshot is captured under the
// same lock, so it describes exactly this batch's outcome even when other
// batches land concurrently; Engine.Snapshot would race past them. An
// event outside the mesh fails the whole batch before any of it is
// applied.
func (e *Engine[C, T]) Apply(events []Event[C]) (applied int, snap *Snapshot[C, T], err error) {
	if err := ValidateEvents(e.mesh, events); err != nil {
		return 0, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ev := range events {
		changed := false
		if ev.Op == Add {
			changed = e.addLocked(ev.Node)
		} else {
			changed = e.clearLocked(ev.Node)
		}
		if changed {
			e.version++
			applied++
		}
	}
	if applied > 0 {
		e.metrics.eventsApplied.Add(uint64(applied))
		e.publish()
	}
	return applied, e.snap.Load(), nil
}

// addLocked is the arrival path: merge the new fault with every component
// it is adjacent to (the merge process of Section 3, under the topology's
// Definition 2 adjacency) and recompute that one component's closure.
func (e *Engine[C, T]) addLocked(c C) bool {
	if !e.faults.Add(c) {
		return false
	}

	// The components the new fault touches are the owners of its faulty
	// neighbours, looked up in the fault index; the largest keeps its
	// owner handle.
	ci := e.mesh.Index(c)
	e.neigh = e.mesh.Adjacent(c, e.neigh[:0])
	merged := e.merged[:0]
	var keep *owner[C, T]
	for _, n := range e.neigh {
		o := e.owners[e.mesh.Index(n)]
		if o == nil || slices.Contains(merged, o) {
			continue
		}
		merged = append(merged, o)
		if keep == nil || o.en.nodes.Len() > keep.en.nodes.Len() {
			keep = o
		}
	}

	nodes := e.scr.take(e.mesh)
	e.mergedSets = e.mergedSets[:0]
	if keep != nil {
		nodes.CopyFrom(keep.en.nodes)
	}
	for _, o := range merged {
		if o != keep {
			nodes.UnionWith(o.en.nodes)
		}
		e.mergedSets = append(e.mergedSets, o.en.nodes)
	}
	nodes.AddIndex(ci)
	// The block model sees the merge before removeEntry may recycle the
	// replaced components' sets: Grow's contract is that merged/result are
	// readable only during the call.
	e.blocks.Grow(c, e.mergedSets, nodes)
	if keep == nil {
		keep = e.newOwner()
	}
	e.relabelTo = keep
	for _, o := range merged {
		en := o.en
		if o != keep {
			en.nodes.EachIndex(e.relabel)
			e.freeOwner(o)
		}
		e.removeEntry(en)
	}
	e.owners[ci] = keep
	clear(merged)
	e.merged = merged[:0]
	poly, passes := e.scr.Closure(nodes)
	keep.en = e.newEntry(nodes, poly)
	e.insertEntry(keep.en)
	e.metrics.componentsTouched.Add(uint64(len(merged)) + 1)
	e.metrics.closures.Inc()
	e.metrics.closurePasses.Add(uint64(passes))
	return true
}

// clearLocked is the repair path: the cleared fault's component loses one
// node, which may split it into several components (or dissolve it when it
// was the last fault); only those fragments are re-closed.
func (e *Engine[C, T]) clearLocked(c C) bool {
	if !e.faults.Remove(c) {
		return false
	}

	ci := e.mesh.Index(c)
	own := e.owners[ci]
	if own == nil {
		// Unreachable: every fault is in exactly one component.
		panic(fmt.Sprintf("engine: fault %v has no component", c))
	}
	delete(e.owners, ci)
	dying := own.en
	// Copy the component before removeEntry may recycle its sets.
	remaining := e.scr.take(e.mesh)
	remaining.CopyFrom(dying.nodes)
	remaining.RemoveIndex(ci)
	fragments := e.scr.Regions(remaining)
	// The block model sees the split while the dying component's set is
	// still intact: Shrink's contract is that removed/fragments are
	// readable only during the call.
	e.blocks.Shrink(c, dying.nodes, fragments)
	e.removeEntry(dying)
	e.metrics.componentsTouched.Inc()
	largest := 0
	for i, region := range fragments {
		if region.Len() > fragments[largest].Len() {
			largest = i
		}
	}
	if len(fragments) == 0 {
		e.freeOwner(own)
	}
	for i, region := range fragments {
		poly, passes := e.scr.Closure(region)
		en := e.newEntry(region, poly)
		e.insertEntry(en)
		if i == largest {
			own.en = en
		} else {
			e.relabelTo = e.newOwner()
			e.relabelTo.en = en
			region.EachIndex(e.relabel)
		}
		e.metrics.closures.Inc()
		e.metrics.closurePasses.Add(uint64(passes))
	}
	e.scr.put(remaining)
	return true
}

// newOwner returns a fresh owner handle, recycled when possible.
func (e *Engine[C, T]) newOwner() *owner[C, T] {
	if n := len(e.freeOwners); n > 0 {
		o := e.freeOwners[n-1]
		e.freeOwners = e.freeOwners[:n-1]
		return o
	}
	return &owner[C, T]{}
}

// freeOwner recycles a handle no fault maps to any more.
func (e *Engine[C, T]) freeOwner(o *owner[C, T]) {
	o.en = nil
	e.freeOwners = append(e.freeOwners, o)
}

// newEntry builds an entry around a component and its polygon, recycling
// entry structs replaced earlier in the same batch.
func (e *Engine[C, T]) newEntry(nodes, poly *Set[C, T]) *entry[C, T] {
	if n := len(e.freeEntries); n > 0 {
		en := e.freeEntries[n-1]
		e.freeEntries[n-1] = nil
		e.freeEntries = e.freeEntries[:n-1]
		*en = entry[C, T]{nodes: nodes, poly: poly, seed: nodes.FirstIndex()}
		return en
	}
	return &entry[C, T]{nodes: nodes, poly: poly, seed: nodes.FirstIndex()}
}

// removeEntry deletes en from the seed-sorted slice by binary search on
// its seed, preserving the order of the survivors.
func (e *Engine[C, T]) removeEntry(en *entry[C, T]) {
	i := sort.Search(len(e.entries), func(i int) bool { return e.entries[i].seed >= en.seed })
	if i == len(e.entries) || e.entries[i] != en {
		panic(fmt.Sprintf("engine: entry with seed %d not in the cache", en.seed))
	}
	copy(e.entries[i:], e.entries[i+1:])
	e.entries[len(e.entries)-1] = nil
	e.entries = e.entries[:len(e.entries)-1]
	// An entry replaced within the batch that created it was never shared
	// with a snapshot: its sets go back to the scratch free list and the
	// struct to the entry free list. Published entries stay referenced by
	// snapshots and are simply dropped.
	if en.published {
		return
	}
	if en.poly != en.nodes {
		e.scr.put(en.poly)
	}
	e.scr.put(en.nodes)
	*en = entry[C, T]{}
	e.freeEntries = append(e.freeEntries, en)
}

// insertEntry places en at its seed-sorted position, keeping the entry
// order identical to the index-order seed order a from-scratch component
// search produces.
func (e *Engine[C, T]) insertEntry(en *entry[C, T]) {
	i := sort.Search(len(e.entries), func(i int) bool { return e.entries[i].seed > en.seed })
	e.entries = append(e.entries, nil)
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = en
}

// CheckOwners verifies the fault index: it holds exactly one key per
// fault, and every fault's owner is a cached component containing that
// fault. The differential tests run it after every event.
func (e *Engine[C, T]) CheckOwners() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.owners) != e.faults.Len() {
		return fmt.Errorf("engine: fault index holds %d keys for %d faults", len(e.owners), e.faults.Len())
	}
	live := make(map[*entry[C, T]]bool, len(e.entries))
	for _, en := range e.entries {
		live[en] = true
	}
	var err error
	e.faults.EachIndex(func(i int) {
		o := e.owners[i]
		switch {
		case err != nil:
		case o == nil:
			err = fmt.Errorf("engine: fault %v has no owner", e.mesh.CoordAt(i))
		case !live[o.en]:
			err = fmt.Errorf("engine: fault %v owned by a dropped component", e.mesh.CoordAt(i))
		case !o.en.nodes.HasIndex(i):
			err = fmt.Errorf("engine: fault %v owned by a component without it", e.mesh.CoordAt(i))
		}
	})
	return err
}

// publish builds the immutable snapshot for the current state and makes it
// the one Snapshot returns. Polygons and components are shared with the
// cache (and with every previous snapshot that saw the same component);
// only the fault set, the disabled union and the block model's unsafe set
// are fresh.
//
// Components and polygons published for the first time are trimmed to
// their windows, so a component costs its own extent rather than the
// scratch array it was built in; the arrays they leave go back to the
// scratch pool. The disabled union is rebuilt from the polygon windows
// with count-free ORs into a set sized once to their union, and one
// recount: O(components + union window), independent of how the batch
// changed the state.
//
//mfplint:owned publish is the one legitimate snapshot writer: it mutates s (and trims entry sets no snapshot holds yet) strictly before e.snap.Store makes them visible, so no reader can observe the writes.
func (e *Engine[C, T]) publish() {
	s := &Snapshot[C, T]{
		mesh:     e.mesh,
		version:  e.version,
		faults:   e.faults.Clone(),
		comps:    make([]*Set[C, T], len(e.entries)),
		polygons: make([]*Set[C, T], len(e.entries)),
		disabled: NewSet[C](e.mesh),
	}
	lo, hi := 0, 0
	for i, en := range e.entries {
		if !en.published {
			e.scr.recycle(en.nodes.trim())
			if en.poly != en.nodes {
				e.scr.recycle(en.poly.trim())
			}
			en.published = true
		}
		s.comps[i] = en.nodes
		s.polygons[i] = en.poly
		if i == 0 || en.poly.off < lo {
			lo = en.poly.off
		}
		hi = max(hi, en.poly.off+len(en.poly.words))
	}
	if hi > lo {
		s.disabled.grow(lo, hi)
	}
	for _, p := range s.polygons {
		s.disabled.orWithNoCount(p)
	}
	s.disabled.recount()
	s.unsafe = e.blocks.Unsafe()
	e.snap.Store(s)
	e.metrics.publishes.Inc()
}

// Snapshot returns the current immutable snapshot. It never blocks, not
// even while a batch is being applied, and the returned snapshot remains
// valid (and consistent) indefinitely.
func (e *Engine[C, T]) Snapshot() *Snapshot[C, T] { return e.snap.Load() }
