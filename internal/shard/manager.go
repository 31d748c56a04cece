// Package shard scales the incremental engine from one mesh to many
// tenants. A Manager owns a namespace of independently evolving meshes,
// each backed by its own kernel engine behind a per-shard mailbox
// goroutine: event submissions queue into the mailbox and the goroutine
// coalesces everything pending into a single engine Apply, so a burst of
// small batches against a hot shard pays for one snapshot publication, not
// one per submission. Reads never enter the mailbox — every shard
// publishes an immutable View through an atomic pointer, so snapshot reads
// on a resident shard are wait-free even while batches land.
//
// Since the kernel refactor the namespace is dimension-mixed: Create
// registers a 2-D mesh (with the routing plane), Create3 a 3-D one
// (serving polytopes), and both run the same generic Shard[C, T].
// Lookup returns the dimension-erased Tenant for callers like mfpd that
// dispatch per dimension; Get resolves a name to one concrete
// instantiation.
//
// Memory is bounded by an LRU policy over resident engines
// (Config.MaxResident): the manager marks the least-recently-used shards
// for eviction and each shard's own goroutine drops its engine and
// published view at the next mailbox turn. What survives eviction is the
// shard's persisted fault set — the authoritative record every mutation
// updates — and because the engine's state is a pure function of the fault
// set (components in seed order, closures, and the block model are all
// canonical), the rebuild on next access reproduces the exact pre-eviction
// constructions. Eviction therefore never loses or reorders state; it only
// trades the next access's latency for memory.
//
// The package is the backing store of the multi-mesh mfpd service and of
// the mfpsim -stress harness, which drives tens of thousands of
// interleaved events across dozens of shards and differentially verifies
// every shard against a from-scratch core.Construct at checkpoints.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/routing"
	"repro/internal/wal"
)

// Errors reported by the manager and its shards.
var (
	// ErrUnknownMesh is returned when a name resolves to no mesh.
	ErrUnknownMesh = errors.New("shard: unknown mesh")
	// ErrMeshExists is returned by Create for a name already in use.
	ErrMeshExists = errors.New("shard: mesh already exists")
	// ErrClosed is returned once a shard (or the whole manager) has been
	// deleted or shut down; requests already accepted still drain.
	ErrClosed = errors.New("shard: mesh closed")
	// ErrTooManyMeshes is returned by Create once Config.MaxMeshes meshes
	// exist.
	ErrTooManyMeshes = errors.New("shard: mesh limit reached")
	// ErrShardFailed is returned once a shard has latched an internal
	// failure (its engine diverged from the persisted fault set, or a
	// rebuild after eviction failed). The shard stays registered so the
	// failure is observable in Stats, but every Apply/Read fails until the
	// mesh is deleted and recreated.
	ErrShardFailed = errors.New("shard: mesh failed")
	// ErrDimension is returned by Get when the name resolves to a mesh of
	// another dimensionality.
	ErrDimension = errors.New("shard: mesh has a different dimensionality")
	// ErrNoPlanner is returned by Planner on topologies without a routing
	// plane (3-D meshes; the extended e-cube router is 2-D).
	ErrNoPlanner = errors.New("shard: no routing plane for this topology")
)

// nameRE restricts mesh names to URL-path-safe tokens so mesh-scoped
// routes need no escaping.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ValidName reports whether name is an acceptable mesh name: 1–64
// characters of [a-zA-Z0-9._-], starting with an alphanumeric.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Config tunes a Manager. The zero value is valid: unlimited resident
// engines, the default mailbox capacity and compaction threshold.
type Config struct {
	// MaxResident bounds how many engines may be resident at once; beyond
	// it the least-recently-used shards are evicted down to the bound
	// (their persisted fault sets are retained and the engine is rebuilt
	// on next access). Zero or negative means unlimited.
	MaxResident int
	// MaxMeshes bounds how many meshes may exist at once — unlike
	// MaxResident it caps what eviction cannot reclaim (persisted fault
	// sets, mailboxes, goroutines). Create fails with ErrTooManyMeshes
	// beyond it. Zero or negative means unlimited.
	MaxMeshes int
	// Mailbox is the per-shard mailbox capacity in requests; submitters
	// block (backpressure) once it fills. Zero means DefaultMailbox.
	Mailbox int
	// DataDir enables durability: every mesh gets a write-ahead log under
	// DataDir/<name>, each acknowledged batch is fsynced before its reply,
	// Delete removes the mesh's directory, and Recover rebuilds the
	// namespace from disk at startup. Empty means in-memory only — a
	// restart loses every mesh (the pre-durability behavior).
	DataDir string
	// CompactBytes is the log size at which a shard compacts: it persists
	// the full fault set + version as a snapshot and truncates the log, so
	// recovery cost is bounded by churn since the last compaction. Zero
	// means DefaultCompactBytes; negative disables compaction (the log
	// grows without bound — useful only in tests).
	CompactBytes int64
}

// Defaults for the Config knobs.
const (
	DefaultMailbox      = 64
	DefaultCompactBytes = 1 << 20
)

// maxBatch caps how many events one mailbox drain coalesces into a single
// engine Apply, bounding the latency a queued submission can accrue
// behind a giant batch.
const maxBatch = 4096

// Tenant is the dimension-erased face of a shard: what the manager's
// bookkeeping and dimension-agnostic callers (listing, deletion, stats)
// need. The concrete types behind it are the *Shard instantiations
// (grid.Coord/grid.Mesh and grid3.Coord/grid3.Mesh); dispatch per
// dimension with a type switch, as mfpd does.
type Tenant interface {
	// Name returns the shard's mesh name.
	Name() string
	// Stats returns the shard's current stats.
	Stats() Stats

	// The manager-internal lifecycle; unexported so only this package's
	// shard types can be Tenants.
	run()
	close()
	nudgeEvict()
	lastUsedStore(uint64)
	lastUsedLoad() uint64
	evictPendingLoad() bool
	evictPendingMark()
}

// Manager owns a namespace of shards. All methods are safe for concurrent
// use.
type Manager struct {
	cfg   Config
	clock atomic.Uint64 // LRU clock, advanced by every shard access

	mu       sync.Mutex
	closed   bool
	shards   map[string]Tenant
	pending  map[string]struct{} // names reserved by in-flight Creates
	resident map[Tenant]struct{}
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = DefaultMailbox
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = DefaultCompactBytes
	}
	return &Manager{
		cfg:      cfg,
		shards:   make(map[string]Tenant),
		pending:  make(map[string]struct{}),
		resident: make(map[Tenant]struct{}),
	}
}

// Create registers a new named 2-D mesh and starts its shard. The engine
// is built eagerly so an unsupported mesh (torus, empty) fails here, not
// on first use.
func (m *Manager) Create(name string, mesh grid.Mesh) (*Shard[grid.Coord, grid.Mesh], error) {
	return create(m, name, mesh, newEngine2, routing.NewPlannerFrom, false)
}

// Create3 registers a new named 3-D mesh and starts its shard; the mesh is
// served by the 3-D engine (polytopes, cuboid unsafe set) and has no
// routing plane.
func (m *Manager) Create3(name string, mesh grid3.Mesh) (*Shard[grid3.Coord, grid3.Mesh], error) {
	return create[grid3.Coord](m, name, mesh, newEngine3, nil, false)
}

// Recover scans Config.DataDir and recreates every persisted mesh,
// replaying each one's snapshot and write-ahead log through the same
// kernel.Replay path that eviction-rebuild exercises. It returns the
// recovered mesh names (sorted) and fails on the first mesh whose history
// cannot be recovered exactly — a half-recovered namespace silently
// serving wrong state would be worse than a loud startup failure. With no
// DataDir (or an empty one) it is a no-op.
func (m *Manager) Recover() ([]string, error) {
	if m.cfg.DataDir == "" {
		return nil, nil
	}
	if err := wal.Sweep(m.cfg.DataDir); err != nil {
		return nil, err
	}
	names, err := wal.Meshes(m.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		meta, err := wal.ReadMeta(filepath.Join(m.cfg.DataDir, name))
		if err != nil {
			return nil, fmt.Errorf("shard: recover %q: %w", name, err)
		}
		if meta.Width <= 0 || meta.Height <= 0 || meta.Depth < 0 {
			return nil, fmt.Errorf("shard: recover %q: invalid mesh %dx%dx%d",
				name, meta.Width, meta.Height, meta.Depth)
		}
		if meta.Depth > 0 {
			_, err = create[grid3.Coord](m, name, grid3.New(meta.Width, meta.Height, meta.Depth), newEngine3, nil, true)
		} else {
			_, err = create(m, name, grid.New(meta.Width, meta.Height), newEngine2, routing.NewPlannerFrom, true)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: recover %q: %w", name, err)
		}
	}
	return names, nil
}

// walDir is the named mesh's durable directory under Config.DataDir.
// ValidName guarantees the name is a single path-safe component.
func (m *Manager) walDir(name string) string { return filepath.Join(m.cfg.DataDir, name) }

// create is the dimension-generic Create body: it reserves the name and a
// MaxMeshes slot before building anything, so a rejected request
// (duplicate name, full namespace) never pays the engine allocation —
// MaxMeshes is the memory backstop, it must bind before the memory is
// spent. With a DataDir configured it also attaches the mesh's write-ahead
// log: a fresh one for Create, or (recovered true) the existing directory
// replayed through the kernel before the shard starts serving.
func create[C any, T kernel.Topology[C]](m *Manager, name string, mesh T,
	newEngine func(T) (*kernel.Engine[C, T], error),
	newPlanner func(prev *routing.Planner, snap *kernel.Snapshot[C, T]) *routing.Planner,
	recovered bool) (*Shard[C, T], error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("shard: invalid mesh name %q (want 1-64 chars of [a-zA-Z0-9._-])", name)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	_, dupShard := m.shards[name]
	_, dupPending := m.pending[name]
	if dupShard || dupPending {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrMeshExists, name)
	}
	if m.cfg.MaxMeshes > 0 && len(m.shards)+len(m.pending) >= m.cfg.MaxMeshes {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d)", ErrTooManyMeshes, m.cfg.MaxMeshes)
	}
	m.pending[name] = struct{}{}
	m.mu.Unlock()

	s, err := newShard(m, name, mesh, newEngine, newPlanner)
	if err == nil && m.cfg.DataDir != "" {
		err = s.attachWAL(recovered)
	}

	m.mu.Lock()
	delete(m.pending, name)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if m.closed {
		// Closed while building: the run goroutine never started, so the
		// shard is just garbage — including its freshly created WAL
		// directory, which must not resurrect a mesh the client was told
		// does not exist.
		m.mu.Unlock()
		s.closeWAL()
		if !recovered && m.cfg.DataDir != "" {
			wal.Remove(m.walDir(name))
		}
		return nil, ErrClosed
	}
	m.shards[name] = s
	shardMetrics.meshes.Inc()
	victims := m.admitLocked(s)
	m.mu.Unlock()

	go s.run() //mfplint:managed the mailbox goroutine is owned by its shard: Close/evict close s.stop and block on s.done until run returns
	nudge(victims)
	return s, nil
}

// Lookup resolves a mesh name to its dimension-erased Tenant; type-switch
// on the *Shard instantiations (or use Get) for dimension-specific access.
func (m *Manager) Lookup(name string) (Tenant, error) {
	m.mu.Lock()
	s, ok := m.shards[name]
	closed := m.closed
	m.mu.Unlock()
	if !ok {
		if closed {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownMesh, name)
	}
	return s, nil
}

// Get resolves a mesh name to its shard of one dimensionality, e.g.
// Get[grid.Coord, grid.Mesh](m, name); a name registered with another
// dimensionality fails with ErrDimension.
func Get[C any, T kernel.Topology[C]](m *Manager, name string) (*Shard[C, T], error) {
	t, err := m.Lookup(name)
	if err != nil {
		return nil, err
	}
	s, ok := t.(*Shard[C, T])
	if !ok {
		var mesh T
		return nil, fmt.Errorf("%w: %q is not %d-D", ErrDimension, name, mesh.Axes())
	}
	return s, nil
}

// Delete removes the named mesh of either dimensionality. New requests
// fail with ErrClosed (or ErrUnknownMesh once a lookup no longer finds the
// name) while requests already accepted drain first; Delete returns after
// the shard's goroutine has exited. With durability enabled the mesh's
// write-ahead log directory is removed too (wal.Remove: tombstone rename,
// fsync, then removal, so a crash never leaves half a history) — deletion
// is the one administrative action that forgets history on purpose.
func (m *Manager) Delete(name string) error {
	m.mu.Lock()
	s, ok := m.shards[name]
	if ok {
		delete(m.shards, name)
		// The name stays reserved until the directory is gone, so a
		// concurrent Create cannot build its WAL inside the one being
		// removed.
		m.pending[name] = struct{}{}
		shardMetrics.meshes.Dec()
		if _, wasResident := m.resident[s]; wasResident {
			delete(m.resident, s)
			shardMetrics.resident.Dec()
		}
	}
	closed := m.closed
	m.mu.Unlock()
	if !ok {
		if closed {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrUnknownMesh, name)
	}
	s.close()
	var err error
	if m.cfg.DataDir != "" {
		if rerr := wal.Remove(m.walDir(name)); rerr != nil {
			err = fmt.Errorf("shard: delete %q: remove wal: %w", name, rerr)
		}
	}
	m.mu.Lock()
	delete(m.pending, name)
	m.mu.Unlock()
	return err
}

// Len returns the number of meshes.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.shards)
}

// List returns the stats of every mesh, sorted by name.
func (m *Manager) List() []Stats {
	m.mu.Lock()
	shards := make([]Tenant, 0, len(m.shards))
	for _, s := range m.shards {
		shards = append(shards, s)
	}
	m.mu.Unlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].Name() < shards[j].Name() })
	out := make([]Stats, len(shards))
	for i, s := range shards {
		out[i] = s.Stats()
	}
	return out
}

// Close shuts the whole namespace down gracefully: every shard drains its
// accepted requests and exits. Close returns once all shard goroutines
// have stopped; it is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	shards := make([]Tenant, 0, len(m.shards))
	for _, s := range m.shards {
		shards = append(shards, s)
	}
	shardMetrics.meshes.Add(-int64(len(m.shards)))
	shardMetrics.resident.Add(-int64(len(m.resident)))
	m.shards = make(map[string]Tenant)
	m.resident = make(map[Tenant]struct{})
	m.mu.Unlock()

	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s Tenant) {
			defer wg.Done()
			s.close()
		}(s)
	}
	wg.Wait()
}

// touch advances the LRU clock for one shard access.
func (m *Manager) touch(s Tenant) { s.lastUsedStore(m.clock.Add(1)) }

// noteResident records that s rebuilt its engine and returns the shards
// the caller must nudge toward eviction. Called from s's own run
// goroutine, which never holds m.mu.
func (m *Manager) noteResident(s Tenant) []Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.shards[s.Name()] != s {
		// Deleted concurrently; the engine dies with the shard, so it does
		// not count against the bound.
		return nil
	}
	return m.admitLocked(s)
}

// noteEvicted records that s dropped its engine.
func (m *Manager) noteEvicted(s Tenant) {
	m.mu.Lock()
	if _, ok := m.resident[s]; ok {
		delete(m.resident, s)
		shardMetrics.resident.Dec()
	}
	m.mu.Unlock()
}

// admitLocked adds s to the resident set and, when the LRU bound is
// exceeded, marks the least-recently-used other shards for eviction,
// returning them for the caller to nudge outside the lock. Marked shards
// stay formally resident until their own goroutine performs the eviction.
func (m *Manager) admitLocked(s Tenant) []Tenant {
	if _, ok := m.resident[s]; !ok {
		m.resident[s] = struct{}{}
		shardMetrics.resident.Inc()
	}
	if m.cfg.MaxResident <= 0 {
		return nil
	}
	// Shards already marked count as departing, not resident: without the
	// discount, repeated admits while a marked shard is still busy would
	// mark ever more victims and drain the pool below the bound.
	cands := make([]Tenant, 0, len(m.resident))
	pending := 0
	for r := range m.resident {
		if r.evictPendingLoad() {
			pending++
		} else if r != s {
			cands = append(cands, r)
		}
	}
	over := len(m.resident) - pending - m.cfg.MaxResident
	if over <= 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUsedLoad() < cands[j].lastUsedLoad() })
	if over > len(cands) {
		over = len(cands)
	}
	for _, v := range cands[:over] {
		v.evictPendingMark()
	}
	return cands[:over]
}

// nudge wakes each marked shard so an idle one evicts promptly instead of
// at its next event. A full mailbox means the shard is busy and will check
// the pending flag after its current batch anyway.
func nudge(victims []Tenant) {
	for _, v := range victims {
		v.nudgeEvict()
	}
}
