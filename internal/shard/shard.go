package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/routing"
	"repro/internal/wal"
)

// request is one mailbox message: an event submission (possibly empty — a
// touch that only forces residency and returns the current view), or an
// eviction nudge (evict true, no reply).
type request[C any, T kernel.Topology[C]] struct {
	events []kernel.Event[C]
	evict  bool
	reply  chan result[C, T] // buffered(1) so the run goroutine never blocks
}

type result[C any, T kernel.Topology[C]] struct {
	applied int
	view    View[C, T]
	err     error
}

// View pairs an engine snapshot with the shard version it reflects. The
// shard version counts state-changing events over the shard's whole
// lifetime; unlike Snapshot.Version it survives eviction/rebuild cycles,
// so it is the number clients should compare across reads.
type View[C any, T kernel.Topology[C]] struct {
	Snapshot *kernel.Snapshot[C, T]
	Version  uint64
}

// ApplyResult describes the outcome of one Apply call.
type ApplyResult[C any, T kernel.Topology[C]] struct {
	// Applied counts this submission's events that changed state; Ignored
	// the duplicate adds and clears of healthy nodes.
	Applied int
	Ignored int
	// View is the state after the coalesced batch this submission rode in:
	// View.Version is the shard version right after this submission's
	// events, and View.Snapshot reflects at least them (possibly also
	// later submissions coalesced into the same engine batch).
	View View[C, T]
}

// Stats is a point-in-time description of one shard. Counter fields are
// monotone over the shard's lifetime within one process: after a durable
// restart, Version, Faults and Components are recovered from the
// write-ahead log while the operational counters (Requests, Events,
// Batches, Evictions, Rebuilds, route counters) restart from zero.
type Stats struct {
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	// Depth is the third mesh dimension; 0 (omitted) on 2-D meshes.
	Depth int `json:"depth,omitempty"`
	// Version is the number of state-changing events ever applied.
	Version uint64 `json:"version"`
	// Requests counts processed submissions, Events their total event
	// count (including ignored duplicates), Batches the engine.Apply
	// calls they were coalesced into (Batches <= Requests).
	Requests uint64 `json:"requests"`
	Events   uint64 `json:"events"`
	Batches  uint64 `json:"batches"`
	// Evictions counts LRU evictions, Rebuilds the engine rebuilds from
	// the persisted fault set they forced.
	Evictions uint64 `json:"evictions"`
	Rebuilds  uint64 `json:"rebuilds"`
	// Resident reports whether the engine is currently in memory.
	Resident bool `json:"resident"`
	// Faults and Components describe the current fault population (valid
	// even while evicted).
	Faults     int `json:"faults"`
	Components int `json:"components"`
	// QueueLength is the instantaneous mailbox backlog in requests.
	QueueLength int `json:"queue_length"`
	// RouteQueries counts Planner calls, RouteCacheHits the ones that
	// reused a planner memoized for the current shard version, and
	// PlannerBuilds the planner constructions (misses, including the
	// rebuilds that follow eviction or fault churn).
	RouteQueries   uint64 `json:"route_queries"`
	RouteCacheHits uint64 `json:"route_cache_hits"`
	PlannerBuilds  uint64 `json:"planner_builds"`
	// Failed carries the shard's latched failure; empty while healthy.
	Failed string `json:"failed,omitempty"`
}

// Shard is one named mesh of any dimensionality: a persisted fault set,
// an (evictable) kernel engine, and the mailbox goroutine that owns both.
// All methods are safe for concurrent use. Manager.Create makes the 2-D
// instantiation Shard[grid.Coord, grid.Mesh], the only one with a routing
// planner; Manager.Create3 makes Shard[grid3.Coord, grid3.Mesh], which
// serves polytopes.
type Shard[C any, T kernel.Topology[C]] struct {
	name string
	mesh T
	mgr  *Manager

	// newEngine builds (and rebuilds after eviction) the shard's engine;
	// it carries the per-dimension constructor (engine.New / engine3.New).
	newEngine func(T) (*kernel.Engine[C, T], error)
	// newPlanner prepares a routing planner from a snapshot, reusing what
	// prev (the last memoized planner, possibly nil or of another version)
	// built; nil when the topology has no routing plane (3-D meshes).
	newPlanner func(prev *routing.Planner, snap *kernel.Snapshot[C, T]) *routing.Planner

	mailbox chan *request[C, T]
	done    chan struct{}

	// sendMu makes closing the mailbox safe against concurrent senders:
	// senders hold the read side across the channel send, the closer takes
	// the write side before closing.
	sendMu   sync.RWMutex
	closing  bool
	closedFl atomic.Bool

	view         atomic.Pointer[View[C, T]] // nil while evicted
	lastUsed     atomic.Uint64
	evictPending atomic.Bool

	// failed latches the shard's first internal failure (engine divergence,
	// rebuild error): nil while healthy. Once set it never clears; every
	// subsequent Apply/Read fails with ErrShardFailed.
	failed atomic.Pointer[string]

	// planners memoizes one routing planner per shard version, shared by
	// every concurrent route query at that version, and bodies the encoded
	// polygons reply (see memo). The route counters are atomics, not
	// statsMu fields: the cache-hit path exists to keep concurrent route
	// serving free of shared locks.
	planners      memo[*routing.Planner]
	bodies        memo[*polygonsBody[C, T]]
	routeQueries  atomic.Uint64
	routeHits     atomic.Uint64
	plannerBuilds atomic.Uint64

	// Owned by the run goroutine (after newShard returns):
	eng    *kernel.Engine[C, T]
	faults *kernel.Set[C, T] // persisted authoritative fault set
	// log is the shard's write-ahead log; nil without a DataDir. Every
	// acknowledged batch is fsynced to it before the engine applies it or
	// any waiter sees a reply.
	log *wal.Log[C]

	// rebuildFail injects a rebuild error in tests; never set in production.
	rebuildFail error

	statsMu sync.Mutex
	stats   counters
}

type counters struct {
	version, requests, events, batches, evictions, rebuilds uint64
	faults, components                                      int
}

func newShard[C any, T kernel.Topology[C]](m *Manager, name string, mesh T,
	newEngine func(T) (*kernel.Engine[C, T], error),
	newPlanner func(prev *routing.Planner, snap *kernel.Snapshot[C, T]) *routing.Planner) (*Shard[C, T], error) {
	eng, err := newEngine(mesh)
	if err != nil {
		return nil, err
	}
	s := &Shard[C, T]{
		name:       name,
		mesh:       mesh,
		mgr:        m,
		newEngine:  newEngine,
		newPlanner: newPlanner,
		mailbox:    make(chan *request[C, T], m.cfg.Mailbox),
		done:       make(chan struct{}),
		eng:        eng,
		faults:     kernel.NewSet[C](mesh),
	}
	s.view.Store(&View[C, T]{Snapshot: eng.Snapshot()})
	m.touch(s)
	return s, nil
}

// attachWAL gives the shard its durable log before the run goroutine
// starts: a fresh directory on create, or an existing one recovered and
// replayed into the fault set and engine. Called only from create, with
// no concurrency yet.
func (s *Shard[C, T]) attachWAL(recovered bool) error {
	dir := s.mgr.walDir(s.name)
	if !recovered {
		meta := wal.Meta{Width: s.mesh.AxisLen(0), Height: s.mesh.AxisLen(1)}
		if s.mesh.Axes() > 2 {
			meta.Depth = s.mesh.AxisLen(2)
		}
		log, err := wal.Create[C](dir, meta)
		if err != nil {
			return err
		}
		s.log = log
		return nil
	}
	log, rec, err := wal.Open[C](dir)
	if err != nil {
		return err
	}
	if err := s.restore(rec); err != nil {
		log.Close()
		return err
	}
	s.log = log
	return nil
}

// restore replays a recovered WAL into the shard before it serves: the
// snapshot's fault set, then every surviving log batch, walked through
// kernel.Replay with the replayed version checked against each record's
// recorded one, so a divergence fails recovery instead of silently
// serving wrong state. The final fault set is then loaded into the empty
// engine newShard built, in one bulk pass.
func (s *Shard[C, T]) restore(rec *wal.Recovery[C]) error {
	start := time.Now()
	version := rec.Version
	base := make([]kernel.Event[C], 0, len(rec.Faults))
	for _, c := range rec.Faults {
		base = append(base, kernel.Event[C]{Op: kernel.Add, Node: c})
	}
	if err := kernel.ValidateEvents(s.mesh, base); err != nil {
		return fmt.Errorf("wal snapshot: %w", err)
	}
	if n := kernel.Replay(s.faults, base...); n != len(rec.Faults) {
		return fmt.Errorf("wal snapshot: %d duplicate faults", len(rec.Faults)-n)
	}
	for _, b := range rec.Batches {
		if err := kernel.ValidateEvents(s.mesh, b.Events); err != nil {
			return fmt.Errorf("wal record %d: %w", b.Version, err)
		}
		version += uint64(kernel.Replay(s.faults, b.Events...))
		if version != b.Version {
			return fmt.Errorf("wal replay diverged: version %d at record %d", version, b.Version)
		}
	}
	snap, err := s.eng.Load(s.faults)
	if err != nil {
		return fmt.Errorf("recovery: replay of the persisted fault set: %v", err)
	}
	shardMetrics.recoverSeconds.ObserveDuration(time.Since(start))
	s.stats.version = version
	s.stats.faults = s.faults.Len()
	s.stats.components = len(snap.Polygons())
	s.view.Store(&View[C, T]{Snapshot: snap, Version: version})
	return nil
}

// closeWAL fsyncs and releases the shard's log handle; safe to call with
// no log attached.
func (s *Shard[C, T]) closeWAL() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}

// Name returns the shard's mesh name.
func (s *Shard[C, T]) Name() string { return s.name }

// Mesh returns the shard's mesh.
func (s *Shard[C, T]) Mesh() T { return s.mesh }

// Apply submits a batch of events and blocks until the shard's goroutine
// has applied it (coalesced with whatever else was queued). Events are
// validated as one submission: any out-of-mesh event fails this submission
// alone, without failing others coalesced into the same engine batch.
func (s *Shard[C, T]) Apply(events []kernel.Event[C]) (ApplyResult[C, T], error) {
	req := &request[C, T]{events: events, reply: make(chan result[C, T], 1)}
	if err := s.enqueue(req); err != nil {
		return ApplyResult[C, T]{}, err
	}
	res := <-req.reply
	if res.err != nil {
		return ApplyResult[C, T]{}, res.err
	}
	return ApplyResult[C, T]{
		Applied: res.applied,
		Ignored: len(events) - res.applied,
		View:    res.view,
	}, nil
}

// Read returns the shard's current view. On a resident shard this is
// wait-free — two atomic loads, never blocked by event batches. On an
// evicted shard it queues a touch through the mailbox, which rebuilds the
// engine from the persisted fault set and republishes the view.
func (s *Shard[C, T]) Read() (View[C, T], error) {
	if s.closedFl.Load() {
		return View[C, T]{}, ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return View[C, T]{}, err
	}
	s.mgr.touch(s)
	if v := s.view.Load(); v != nil {
		return *v, nil
	}
	req := &request[C, T]{reply: make(chan result[C, T], 1)}
	if err := s.enqueue(req); err != nil {
		return View[C, T]{}, err
	}
	res := <-req.reply
	return res.view, res.err
}

// Peek returns the current view without forcing residency or updating the
// LRU clock: ok is false while the shard is evicted or closed. It never
// blocks, which makes it the right read for monitoring paths that must not
// defeat the MaxResident bound (Read would rebuild and mark the shard
// most-recently-used).
func (s *Shard[C, T]) Peek() (View[C, T], bool) {
	if s.closedFl.Load() || s.failed.Load() != nil {
		return View[C, T]{}, false
	}
	if v := s.view.Load(); v != nil {
		return *v, true
	}
	return View[C, T]{}, false
}

// Planner returns a routing planner prepared from the shard's current
// snapshot, together with the view it serves and whether the planner was a
// cache hit. One planner is memoized per shard version: concurrent route
// queries at the same version share the preprocessing (rings, region
// index), a fault event moves the version and invalidates the entry for
// free, and eviction drops it with the engine. A miss builds the new
// version's planner from the memoized one (routing.NewPlannerFrom), so
// its cost follows the regions the intervening events changed. Like Read, calling Planner
// on an evicted shard forces a rebuild. On a topology without a routing
// plane (3-D meshes) it fails with ErrNoPlanner.
func (s *Shard[C, T]) Planner() (*routing.Planner, View[C, T], bool, error) {
	if s.newPlanner == nil {
		return nil, View[C, T]{}, false, fmt.Errorf("%w: %v", ErrNoPlanner, s.mesh)
	}
	epoch := s.planners.epoch.Load()
	v, err := s.Read()
	if err != nil {
		return nil, View[C, T]{}, false, err
	}
	p, hit := s.planners.get(epoch, v.Version, func(prev *routing.Planner) *routing.Planner {
		return s.newPlanner(prev, v.Snapshot)
	})
	s.noteRoute(hit, !hit)
	return p, v, hit, nil
}

func (s *Shard[C, T]) noteRoute(hit, built bool) {
	s.routeQueries.Add(1)
	shardMetrics.routeQueries.Inc()
	if hit {
		s.routeHits.Add(1)
		shardMetrics.plannerHits.Inc()
	}
	if built {
		s.plannerBuilds.Add(1)
		shardMetrics.plannerBuilds.Inc()
	}
}

// failedErr returns the latched failure wrapped in ErrShardFailed, or nil
// while the shard is healthy.
func (s *Shard[C, T]) failedErr() error {
	if msg := s.failed.Load(); msg != nil {
		return fmt.Errorf("%w: %s", ErrShardFailed, *msg)
	}
	return nil
}

// latchFail records the shard's first internal failure and drops the
// engine and published view: the state can no longer be trusted, so reads
// must fail rather than serve it. Called only from the run goroutine.
func (s *Shard[C, T]) latchFail(msg string) {
	if s.failed.CompareAndSwap(nil, &msg) {
		shardMetrics.failures.Inc()
	}
	s.eng = nil
	s.view.Store(nil)
	s.dropMemos()
}

// dropMemos forgets the memoized planner and polygons body, so a shard
// whose engine is gone does not pin the sets of its last snapshot.
func (s *Shard[C, T]) dropMemos() {
	s.planners.drop()
	s.bodies.drop()
}

// Stats returns the shard's current stats.
func (s *Shard[C, T]) Stats() Stats {
	s.statsMu.Lock()
	c := s.stats
	s.statsMu.Unlock()
	failed := ""
	if msg := s.failed.Load(); msg != nil {
		failed = *msg
	}
	depth := 0
	if s.mesh.Axes() > 2 {
		depth = s.mesh.AxisLen(2)
	}
	return Stats{
		Name:           s.name,
		Width:          s.mesh.AxisLen(0),
		Height:         s.mesh.AxisLen(1),
		Depth:          depth,
		Version:        c.version,
		Requests:       c.requests,
		Events:         c.events,
		Batches:        c.batches,
		Evictions:      c.evictions,
		Rebuilds:       c.rebuilds,
		Resident:       s.view.Load() != nil,
		Faults:         c.faults,
		Components:     c.components,
		QueueLength:    len(s.mailbox),
		RouteQueries:   s.routeQueries.Load(),
		RouteCacheHits: s.routeHits.Load(),
		PlannerBuilds:  s.plannerBuilds.Load(),
		Failed:         failed,
	}
}

// enqueue hands a request to the run goroutine, blocking when the mailbox
// is full (backpressure). The read lock spans the channel send so close()
// cannot close the mailbox midway through it.
func (s *Shard[C, T]) enqueue(req *request[C, T]) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closing {
		return ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return err
	}
	s.mgr.touch(s)
	s.mailbox <- req
	return nil
}

// nudgeEvict wakes the run goroutine without queueing work, best-effort:
// if the mailbox is full the shard is busy and will observe evictPending
// after its current batch.
func (s *Shard[C, T]) nudgeEvict() {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closing {
		return
	}
	select {
	case s.mailbox <- &request[C, T]{evict: true}:
	default:
	}
}

// close stops the shard: new requests are refused, accepted ones drain,
// and close returns once the run goroutine has exited. Idempotent.
func (s *Shard[C, T]) close() {
	s.sendMu.Lock()
	if s.closing {
		s.sendMu.Unlock()
		<-s.done
		return
	}
	s.closing = true
	s.closedFl.Store(true)
	s.sendMu.Unlock()
	close(s.mailbox)
	<-s.done
}

// run is the shard's mailbox goroutine: it drains everything pending into
// one coalesced batch, applies it, then handles any pending eviction and
// the compaction policy. It exits when the mailbox is closed and fully
// drained; the WAL handle closes (with a final fsync) before done is
// signalled, so a drain observed by close() is durable on disk.
func (s *Shard[C, T]) run() {
	defer close(s.done)
	defer s.closeWAL()
	for first := range s.mailbox {
		batch := s.drainInto(first)
		s.process(batch)
		s.maybeEvict()
		s.maybeCompact()
	}
}

// drainInto collects whatever else is already queued behind first, up to
// maxBatch events, without blocking.
func (s *Shard[C, T]) drainInto(first *request[C, T]) []*request[C, T] {
	batch := []*request[C, T]{first}
	size := len(first.events)
	for size < maxBatch {
		select {
		case req, ok := <-s.mailbox:
			if !ok {
				return batch
			}
			batch = append(batch, req)
			size += len(req.events)
		default:
			return batch
		}
	}
	return batch
}

// process validates each submission, tracks per-submission applied counts
// against the persisted fault set, applies the concatenation through the
// engine in one batch, publishes the new view, and replies to every
// waiter. Eviction nudges in the batch carry no work; they only woke the
// goroutine so maybeEvict runs.
func (s *Shard[C, T]) process(batch []*request[C, T]) {
	reqs := batch[:0:0]
	for _, r := range batch {
		if !r.evict {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return
	}
	if err := s.failedErr(); err != nil {
		// Requests that were already queued when the shard latched its
		// failure still deserve a reply.
		for _, r := range reqs {
			r.reply <- result[C, T]{err: err}
		}
		return
	}
	if s.eng == nil {
		if err := s.rebuild(); err != nil {
			s.latchFail(fmt.Sprintf("rebuild after eviction: %v", err))
			failErr := s.failedErr()
			for _, r := range reqs {
				r.reply <- result[C, T]{err: failErr}
			}
			return
		}
	}

	// Walk the persisted fault set through each valid submission in order.
	// This both keeps the authoritative record current and yields the
	// per-submission applied counts the coalesced engine batch cannot
	// report itself.
	var all []kernel.Event[C]
	counts := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	total := 0
	for i, r := range reqs {
		if err := kernel.ValidateEvents(s.mesh, r.events); err != nil {
			errs[i] = err
			continue
		}
		counts[i] = kernel.Replay(s.faults, r.events...)
		total += counts[i]
		all = append(all, r.events...)
	}

	// Durability before acknowledgement: the whole coalesced batch is
	// fsynced to the write-ahead log before the engine applies it and
	// before any waiter sees a reply, so every acknowledged event is on
	// disk by definition. Batches that change nothing (total == 0) leave
	// the version untouched and need no record. An append failure latches
	// the shard: its durability contract is broken, and serving
	// acknowledgements it cannot honor would be worse than failing.
	if s.log != nil && total > 0 {
		s.statsMu.Lock()
		version := s.stats.version
		s.statsMu.Unlock()
		if err := s.log.Append(version+uint64(total), all); err != nil {
			s.latchFail(fmt.Sprintf("wal append: %v", err))
			failErr := s.failedErr()
			for i, r := range reqs {
				if errs[i] != nil {
					r.reply <- result[C, T]{err: errs[i]}
					continue
				}
				r.reply <- result[C, T]{err: failErr}
			}
			return
		}
	}

	applied, snap, err := s.eng.Apply(all)
	if err != nil || applied != total {
		// Normally unreachable — submissions were validated above and the
		// persisted fault set walks in lockstep with the engine — but a
		// divergence means the shard's state can no longer be trusted, and
		// one poisoned mesh must not take down the whole process. Latch the
		// failure: these and all subsequent requests fail with it, and it
		// surfaces in Stats.
		s.latchFail(fmt.Sprintf("engine diverged from persisted fault set (applied %d, want %d, err %v)",
			applied, total, err))
		failErr := s.failedErr()
		for i, r := range reqs {
			if errs[i] != nil {
				r.reply <- result[C, T]{err: errs[i]}
				continue
			}
			r.reply <- result[C, T]{err: failErr}
		}
		return
	}

	received := uint64(0)
	s.statsMu.Lock()
	version := s.stats.version + uint64(total)
	s.stats.version = version
	for i, r := range reqs {
		s.stats.requests++
		if errs[i] == nil {
			s.stats.events += uint64(len(r.events))
			received += uint64(len(r.events))
		}
	}
	s.stats.batches++
	s.stats.faults = s.faults.Len()
	s.stats.components = len(snap.Polygons())
	s.statsMu.Unlock()

	shardMetrics.requests.Add(uint64(len(reqs)))
	shardMetrics.eventsReceived.Add(received)
	shardMetrics.eventsApplied.Add(uint64(total))
	shardMetrics.batches.Inc()
	shardMetrics.batchEvents.Observe(float64(len(all)))
	shardMetrics.batchRequests.Observe(float64(len(reqs)))

	s.view.Store(&View[C, T]{Snapshot: snap, Version: version})

	// Reply with per-submission versions: the shard version right after
	// each submission's events, in coalescing order.
	running := version - uint64(total)
	for i, r := range reqs {
		if errs[i] != nil {
			r.reply <- result[C, T]{err: errs[i]}
			continue
		}
		running += uint64(counts[i])
		r.reply <- result[C, T]{applied: counts[i], view: View[C, T]{Snapshot: snap, Version: running}}
	}
}

// rebuild reconstructs the engine from the persisted fault set after an
// eviction. The engine's state is a pure function of the fault set, so the
// rebuilt constructions are identical to the evicted ones. A replay error
// is returned, not panicked: the caller latches it as a shard failure so
// one broken mesh cannot take down the whole process.
func (s *Shard[C, T]) rebuild() error {
	if s.rebuildFail != nil {
		return s.rebuildFail
	}
	start := time.Now()
	eng, err := s.newEngine(s.mesh)
	if err != nil {
		return fmt.Errorf("rebuild: engine on mesh validated at create: %v", err)
	}
	snap, err := eng.Load(s.faults)
	if err != nil {
		return fmt.Errorf("rebuild: replay of the persisted fault set: %v", err)
	}
	s.eng = eng
	shardMetrics.rebuilds.Inc()
	shardMetrics.rebuildSeconds.ObserveDuration(time.Since(start))
	s.statsMu.Lock()
	s.stats.rebuilds++
	version := s.stats.version
	s.statsMu.Unlock()
	s.view.Store(&View[C, T]{Snapshot: snap, Version: version})
	nudge(s.mgr.noteResident(s))
	return nil
}

// maybeCompact runs the compaction policy at the batch boundary, where
// the persisted fault set and the shard version are exactly in step: once
// the log since the last snapshot outgrows Config.CompactBytes, persist
// the full fault set + version and truncate the log. Recovery cost is
// thereby bounded by churn since the last compaction, not by the mesh's
// lifetime. Compaction does not touch the engine, so it works the same on
// an evicted shard.
func (s *Shard[C, T]) maybeCompact() {
	if s.log == nil || s.failed.Load() != nil {
		return
	}
	if limit := s.mgr.cfg.CompactBytes; limit <= 0 || s.log.LogBytes() < limit {
		return
	}
	s.statsMu.Lock()
	version := s.stats.version
	s.statsMu.Unlock()
	if err := s.log.Compact(version, s.faults.Coords()); err != nil {
		s.latchFail(fmt.Sprintf("wal compact: %v", err))
	}
}

// maybeEvict performs a manager-requested eviction: the engine and the
// published view are dropped, the persisted fault set stays. The next
// access rebuilds.
func (s *Shard[C, T]) maybeEvict() {
	if !s.evictPending.Swap(false) || s.eng == nil {
		return
	}
	s.eng = nil
	s.view.Store(nil)
	s.dropMemos()
	s.statsMu.Lock()
	s.stats.evictions++
	s.statsMu.Unlock()
	shardMetrics.evictions.Inc()
	s.mgr.noteEvicted(s)
}

// lastUsedStore / lastUsedLoad / evict flags expose the LRU bookkeeping to
// the manager through the dimension-erased Tenant interface.
func (s *Shard[C, T]) lastUsedStore(v uint64) { s.lastUsed.Store(v) }
func (s *Shard[C, T]) lastUsedLoad() uint64   { return s.lastUsed.Load() }
func (s *Shard[C, T]) evictPendingLoad() bool { return s.evictPending.Load() }
func (s *Shard[C, T]) evictPendingMark()      { s.evictPending.Store(true) }

// newEngine2 is the 2-D shard's engine hook; its planner hook is
// routing.NewPlannerFrom.
func newEngine2(m grid.Mesh) (*kernel.Engine[grid.Coord, grid.Mesh], error) { return engine.New(m) }

// newEngine3 is the 3-D shard's engine hook; 3-D shards have no planner
// hook (routing is 2-D-only).
func newEngine3(m grid3.Mesh) (*kernel.Engine[grid3.Coord, grid3.Mesh], error) {
	return engine3.New(m)
}
