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
// under its lock right after the fault set and its box index change, and
// Unsafe at snapshot publication.
//
// Grow and Shrink receive the bounding boxes of the touched components,
// and the factory hands the model the engine's BoxIndex over every live
// component's box, so a model that needs the components near an event
// queries the index instead of keeping its own per-component state. The
// box slices are the engine's and valid only during the call.
type BlockModel[C any, T Topology[C]] interface {
	// Grow incorporates a fault arrival at c (already in the fault set).
	// merged lists the boxes of the components the arrival merged away
	// (empty when c seeds a new component) and result is the box of the
	// component that replaced them, c included; the index already holds
	// result instead of merged.
	Grow(c C, merged []Box, result Box)
	// Shrink incorporates a repair at c (already removed from the fault
	// set). removed is the box of the component that contained c and
	// fragments are the boxes of the components it split into — empty
	// when c was the component's last fault; the index already holds the
	// fragments instead of removed.
	Shrink(c C, removed Box, fragments []Box)
	// Load initialises a model that has seen no faults from a whole fault
	// set at once: boxes are its components' boxes in seed order, the
	// fault set and the index are already in place. It is the bulk
	// counterpart of one Grow per fault and must leave the model in the
	// state those Grows would.
	Load(boxes []Box)
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
	// slot is the component's box in the engine's BoxIndex.
	slot int32
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
	// index holds every live component's box under its entry's slot, and
	// bySlot maps a slot back to the entry.
	index  *BoxIndex
	bySlot []*entry[C, T]
	// disabled is the union of the published polygons, repaired by each
	// publish where the batch removed polygons (see publish). removedPolys
	// and removedBoxes are the published polygons the batch removed, and
	// added the entries it inserted (some replaced again within the batch).
	disabled     *Set[C, T]
	removedPolys []*Set[C, T]
	removedBoxes []Box
	added        []*entry[C, T]

	// Reusable working memory of the apply path, all guarded by mu: the
	// geometry scratch (flood bookkeeping, span tables, set free list) and
	// the small per-event buffers. Steady-state batches apply without
	// allocating; see BenchmarkEngineApplyAllocs.
	scr         *Scratch[C, T]
	neigh       []C
	merged      []*owner[C, T]
	boxes       []Box
	hits        []int32
	freeEntries []*entry[C, T]
	freeOwners  []*owner[C, T]
	// relabel points every index it is called with at relabelTo; it is
	// bound once so EachIndex walks do not allocate a closure per event.
	relabel   func(int)
	relabelTo *owner[C, T]

	snap atomic.Pointer[Snapshot[C, T]]
}

// NewEngine returns an engine over an empty fault set, with the given
// block-model factory (called with the engine's live fault set and its
// box index, which the model may read and query but must not mutate).
// Topology restrictions — the 2-D engine rejects tori, for example —
// belong in the instantiating package's constructor.
func NewEngine[C any, T Topology[C]](mesh T, blocks func(T, *Set[C, T], *BoxIndex) BlockModel[C, T]) (*Engine[C, T], error) {
	if mesh.Size() == 0 {
		return nil, fmt.Errorf("engine: empty mesh")
	}
	e := &Engine[C, T]{
		mesh:     mesh,
		metrics:  newEngineMetrics(mesh.Axes()),
		faults:   NewSet[C](mesh),
		owners:   make(map[int]*owner[C, T]),
		index:    NewBoxIndex[C](mesh),
		disabled: NewSet[C](mesh),
		scr:      NewScratch[C](mesh),
	}
	e.relabel = func(i int) { e.owners[i] = e.relabelTo }
	e.blocks = blocks(mesh, e.faults, e.index)
	e.publish(nil)
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
//
// A batch of arrivals only, applied to an engine that holds no faults
// (recovery, an eviction rebuild, SnapshotOf, a fresh mesh's first bulk
// load), is built in one pass instead of event by event: one component
// search over the whole fault set and one closure per component. The
// snapshot is the one the per-event path would publish — a minimum
// polygon depends on its component alone. Every other batch takes the
// incremental path.
func (e *Engine[C, T]) Apply(events []Event[C]) (applied int, snap *Snapshot[C, T], err error) {
	if err := ValidateEvents(e.mesh, events); err != nil {
		return 0, nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	bulk := e.faults.Empty() && onlyAdds(events)
	if bulk {
		applied = e.loadLocked(events)
		e.version += uint64(applied)
	} else {
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
	}
	if applied > 0 {
		e.metrics.eventsApplied.Add(uint64(applied))
		if bulk {
			e.publish(e.entries) // every entry is new
		} else {
			e.publish(e.added)
		}
	}
	e.metrics.indexVisits.Add(e.index.takeVisits())
	return applied, e.snap.Load(), nil
}

// onlyAdds reports whether every event is an arrival.
func onlyAdds[C any](events []Event[C]) bool {
	for _, ev := range events {
		if ev.Op != Add {
			return false
		}
	}
	return true
}

// loadLocked is the bulk build of an engine holding no faults: it adds
// every arrival to the fault set, floods the components once, measures
// each one's box once — the index is built from those boxes in one pass
// and the block model loaded from them — and closes each once. The flood
// yields components in seed order, so entries are appended, and each
// component gets one owner. It returns how many arrivals changed the
// fault set (a duplicate within the batch counts once).
func (e *Engine[C, T]) loadLocked(events []Event[C]) int {
	applied := 0
	for _, ev := range events {
		if e.faults.Add(ev.Node) {
			applied++
		}
	}
	if applied == 0 {
		return 0
	}
	comps := e.scr.Regions(e.faults)
	boxes := make([]Box, len(comps))
	for i, nodes := range comps {
		boxes[i] = nodes.Bounds()
	}
	e.index.Load(boxes)
	e.blocks.Load(boxes)
	e.owners = make(map[int]*owner[C, T], applied)
	e.entries = slices.Grow(e.entries[:0], len(comps))
	e.bySlot = slices.Grow(e.bySlot[:0], len(comps))
	passes := 0
	for i, nodes := range comps {
		poly, p := e.scr.Closure(nodes)
		passes += p
		en := e.newEntry(nodes, poly)
		en.slot = int32(i)
		e.relabelTo = e.newOwner()
		e.relabelTo.en = en
		e.entries = append(e.entries, en)
		e.bySlot = append(e.bySlot, en)
		nodes.EachIndex(e.relabel)
	}
	e.scr.dropFlood()
	e.metrics.componentsTouched.Add(uint64(len(comps)))
	e.metrics.closures.Add(uint64(len(comps)))
	e.metrics.closurePasses.Add(uint64(passes))
	return applied
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

	// Boxes compose under union: the merged component's box is its parts'
	// boxes extended by c, read from the index before removeEntry frees
	// their slots.
	nodes := e.scr.take(e.mesh)
	box := PointBox(e.mesh, c)
	e.boxes = e.boxes[:0]
	if keep != nil {
		nodes.CopyFrom(keep.en.nodes)
	}
	for _, o := range merged {
		if o != keep {
			nodes.UnionWith(o.en.nodes)
		}
		b := e.index.Box(o.en.slot)
		e.boxes = append(e.boxes, b)
		box = box.Union(b)
	}
	nodes.AddIndex(ci)
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
	e.insertEntry(keep.en, box)
	e.blocks.Grow(c, e.boxes, box)
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
	dyingBox := e.index.Box(dying.slot)
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
	e.boxes = e.boxes[:0]
	for i, region := range fragments {
		poly, passes := e.scr.Closure(region)
		en := e.newEntry(region, poly)
		box := region.Bounds()
		e.boxes = append(e.boxes, box)
		e.insertEntry(en, box)
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
	e.blocks.Shrink(c, dyingBox, e.boxes)
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
// its seed, preserving the order of the survivors, and its box from the
// index. A published entry's polygon is recorded for publish to take out
// of the disabled union.
func (e *Engine[C, T]) removeEntry(en *entry[C, T]) {
	i := sort.Search(len(e.entries), func(i int) bool { return e.entries[i].seed >= en.seed })
	if i == len(e.entries) || e.entries[i] != en {
		panic(fmt.Sprintf("engine: entry with seed %d not in the cache", en.seed))
	}
	copy(e.entries[i:], e.entries[i+1:])
	e.entries[len(e.entries)-1] = nil
	e.entries = e.entries[:len(e.entries)-1]
	box := e.index.Box(en.slot)
	e.index.Remove(en.slot)
	e.bySlot[en.slot] = nil
	// An entry replaced within the batch that created it was never shared
	// with a snapshot: its sets go back to the scratch free list and the
	// struct to the entry free list. Published entries stay referenced by
	// snapshots and are simply dropped.
	if en.published {
		e.removedPolys = append(e.removedPolys, en.poly)
		e.removedBoxes = append(e.removedBoxes, box)
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
// search produces, and its box in the index.
func (e *Engine[C, T]) insertEntry(en *entry[C, T], box Box) {
	i := sort.Search(len(e.entries), func(i int) bool { return e.entries[i].seed > en.seed })
	e.entries = append(e.entries, nil)
	copy(e.entries[i+1:], e.entries[i:])
	e.entries[i] = en
	en.slot = e.index.Insert(box)
	if int(en.slot) == len(e.bySlot) {
		e.bySlot = append(e.bySlot, en)
	} else {
		e.bySlot[en.slot] = en
	}
	e.added = append(e.added, en)
}

// CheckOwners verifies the engine's indexes: the box index holds exactly
// the live components under their entries' slots, each with its exact
// bounds; the maintained disabled union is the union of the polygons; and
// the fault index holds exactly one key per fault, every fault's owner
// being a cached component containing that fault. The differential tests
// run it after every event.
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
	if e.index.Len() != len(e.entries) {
		return fmt.Errorf("engine: box index holds %d boxes for %d components", e.index.Len(), len(e.entries))
	}
	disabled := NewSet[C](e.mesh)
	for _, en := range e.entries {
		if e.bySlot[en.slot] != en {
			return fmt.Errorf("engine: component with seed %d not under its index slot", en.seed)
		}
		if e.index.Box(en.slot) != en.nodes.Bounds() {
			return fmt.Errorf("engine: component with seed %d indexed under box %v, bounds %v", en.seed, e.index.Box(en.slot), en.nodes.Bounds())
		}
		disabled.UnionWith(en.poly)
	}
	if !disabled.Equal(e.disabled) {
		return fmt.Errorf("engine: maintained disabled union differs from the union of the polygons")
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
// are fresh copies.
//
// The disabled union is repaired where the batch changed it rather than
// rebuilt from every polygon. Polygons of distinct components may overlap,
// so taking a removed polygon out can clear nodes another polygon still
// covers; those polygons all overlap the removed one's box, and the index
// finds them. In order: subtract each removed polygon, OR back every
// published polygon whose box overlaps a removed box, OR in each new
// polygon. Entries created and replaced within the batch never touch the
// set. The cost follows the polygons near the change, not the component
// count.
//
// Components and polygons published for the first time are trimmed to
// their windows, so a component costs its own extent rather than the
// scratch array it was built in; the arrays they leave go back to the
// scratch pool.
//
// fresh lists the entries the batch inserted: e.added, or every entry
// after a bulk build.
//
//mfplint:owned publish is the one legitimate snapshot writer: it mutates s (and trims entry sets no snapshot holds yet) strictly before e.snap.Store makes them visible, so no reader can observe the writes.
func (e *Engine[C, T]) publish(fresh []*entry[C, T]) {
	for _, p := range e.removedPolys {
		e.disabled.SubtractWith(p)
	}
	for _, b := range e.removedBoxes {
		e.hits = e.index.Query(b, e.hits[:0])
		for _, slot := range e.hits {
			if en := e.bySlot[slot]; en.published {
				e.disabled.UnionWith(en.poly)
			}
		}
	}
	clear(e.removedPolys)
	e.removedPolys, e.removedBoxes = e.removedPolys[:0], e.removedBoxes[:0]

	// New entries: trim them and size the union's window once to cover
	// them all (after a bulk build that is every polygon), then OR them in
	// and mark them published. A recycled entry that was not reused has no
	// nodes, and one that was is listed twice; the nodes and published
	// checks skip both.
	lo, hi := e.disabled.off, e.disabled.off+len(e.disabled.words)
	if len(e.disabled.words) == 0 {
		lo, hi = e.disabled.meshWords(), 0
	}
	for _, en := range fresh {
		if en.nodes == nil || en.published {
			continue
		}
		e.scr.recycle(en.nodes.trim())
		if en.poly != en.nodes {
			e.scr.recycle(en.poly.trim())
		}
		lo = min(lo, en.poly.off)
		hi = max(hi, en.poly.off+len(en.poly.words))
	}
	if hi > lo {
		e.disabled.grow(lo, hi)
	}
	for _, en := range fresh {
		if en.nodes != nil && !en.published {
			e.disabled.UnionWith(en.poly)
			en.published = true
		}
	}
	clear(e.added)
	e.added = e.added[:0]

	s := &Snapshot[C, T]{
		mesh:     e.mesh,
		version:  e.version,
		faults:   e.faults.Clone(),
		comps:    make([]*Set[C, T], len(e.entries)),
		polygons: make([]*Set[C, T], len(e.entries)),
		disabled: e.disabled.Clone(),
	}
	for i, en := range e.entries {
		s.comps[i] = en.nodes
		s.polygons[i] = en.poly
	}
	s.unsafe = e.blocks.Unsafe()
	e.snap.Store(s)
	e.metrics.publishes.Inc()
}

// Snapshot returns the current immutable snapshot. It never blocks, not
// even while a batch is being applied, and the returned snapshot remains
// valid (and consistent) indefinitely.
func (e *Engine[C, T]) Snapshot() *Snapshot[C, T] { return e.snap.Load() }
