package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
	"repro/internal/routing"
	"repro/internal/shard"
	"repro/internal/wal"
)

// StressConfig describes the multi-shard stress/differential scenario: the
// acceptance harness of the shard layer and a reusable soak test. Dozens
// of independent meshes receive interleaved fault-churn streams from
// concurrent clients; at checkpoints every shard's snapshot is verified
// against a from-scratch core.Construct over the expected fault set, and
// its memoized route planner against a planner built from scratch over
// that construction's disabled set.
//
// The scenario is deterministic: every per-shard event stream is a seeded
// Churn2D sequence, each shard's stream is submitted in order (clients
// parallelise across shards, never within one), and no wall-clock enters
// the run. The report is therefore byte-identical for a fixed seed at any
// Clients or MaxResident value — scheduling and eviction change only
// operational counters, which the report keeps out of its deterministic
// rendering.
type StressConfig struct {
	// Shards is the number of independent meshes.
	Shards int
	// MeshSize is the side length of each n×n mesh.
	MeshSize int
	// Events is the total number of events across all shards, including
	// each shard's warm-up arrivals.
	Events int
	// Checkpoints is the number of verification barriers the run is
	// divided into.
	Checkpoints int
	// Clients is the number of concurrent client goroutines submitting
	// events (0 = GOMAXPROCS). It affects scheduling only, never results.
	Clients int
	// MaxResident bounds the manager's resident engines so the run
	// exercises LRU eviction and rebuild (0 = unlimited).
	MaxResident int
	// BatchSize is the number of events per submission (0 = 64).
	BatchSize int
	// BaseSeed makes the whole scenario reproducible.
	BaseSeed int64
	// DataDir enables durability: every shard appends acknowledged batches
	// to a per-mesh WAL under this directory (which must start empty).
	DataDir string
	// CompactBytes is the per-mesh log size that triggers snapshot
	// compaction (0 = the shard layer's default, negative = never).
	CompactBytes int64
	// Crash enables the kill/recover schedule (requires DataDir): at
	// seeded-random checkpoints the manager is torn down without notice,
	// a torn tail may be injected into a random victim's log, and the
	// namespace is recovered from disk — after which every shard must hold
	// exactly its acknowledged state. The schedule consumes randomness only
	// on the single driver goroutine, so stdout stays byte-identical at any
	// Clients or MaxResident value, crashes included.
	Crash bool
}

// DefaultStress is the acceptance-scale scenario: 24 shards, 24k events,
// eviction pressure (8 resident engines), 4 differential checkpoints.
func DefaultStress() StressConfig {
	return StressConfig{
		Shards:      24,
		MeshSize:    32,
		Events:      24000,
		Checkpoints: 4,
		MaxResident: 8,
		BatchSize:   64,
		BaseSeed:    1,
	}
}

func (c StressConfig) validate() error {
	if c.Shards < 1 || c.MeshSize < 2 || c.Checkpoints < 1 || c.Events < 1 {
		return fmt.Errorf("experiments: invalid stress config %+v", c)
	}
	perShard := c.Events / c.Shards
	for i := 0; i < c.Shards && i < 4; i++ {
		if warm := stressWarmup(c.MeshSize, i); perShard <= warm {
			return fmt.Errorf("experiments: %d events over %d shards is below the %d-fault warm-up of shard %d",
				c.Events, c.Shards, warm, i)
		}
	}
	if c.Crash && c.DataDir == "" {
		return fmt.Errorf("experiments: stress Crash mode requires a DataDir to recover from")
	}
	return nil
}

// stressWarmup is shard i's steady-state fault target: the paper's 1%
// density (at least one fault) on three shards of every four, and 20% on
// the fourth. Uniform faults that dense grow closures that touch, so those
// shards' route planners merge polygons of separate components into one
// detour region, which the sparse shards never do.
func stressWarmup(meshSize, shard int) int {
	pct := 1
	if shard%4 == 3 {
		pct = 20
	}
	if f := meshSize * meshSize * pct / 100; f > 1 {
		return f
	}
	return 1
}

// StressCheckpoint is the deterministic summary of one verification
// barrier, aggregated over all shards.
type StressCheckpoint struct {
	Round      int    // 1-based
	Events     int    // cumulative events submitted
	Applied    uint64 // cumulative state-changing events (sum of shard versions)
	Faults     int
	Components int
	// Regions sums the route planners' detour regions: fewer than
	// Components when some region holds several touching polygons.
	Regions  int
	Disabled int
	Unsafe   int
	// Digest chains every shard's full verified state (fault, disabled and
	// unsafe sets, polygon count, version) in shard order.
	Digest uint64
}

// StressOps aggregates operational counters over the run. They depend on
// scheduling and eviction timing, so they are reported separately from the
// deterministic checkpoint data.
type StressOps struct {
	Requests  uint64
	Batches   uint64
	Evictions uint64
	Rebuilds  uint64
}

// StressReport is the outcome of one stress run.
type StressReport struct {
	Config      StressConfig
	Checkpoints []StressCheckpoint
	// Verified counts the differential verifications performed
	// (Shards × Checkpoints when the run passes).
	Verified int
	Ops      StressOps
	// Crashes and TornTails count the kill/recover cycles and injected
	// torn log tails of a Crash-mode run. They are seed-deterministic but
	// reported outside String(): the deterministic stream must be
	// byte-identical between a crash run and a plain one at the same seed,
	// which is itself part of the durability claim — recovery reconstructs
	// exactly the state a crash-free run would have had.
	Crashes   int
	TornTails int
}

// String renders the deterministic part of the report: byte-identical for
// a fixed config seed at any Clients or MaxResident value.
func (r *StressReport) String() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "stress: shards=%d mesh=%dx%d events=%d checkpoints=%d batch=%d seed=%d\n",
		c.Shards, c.MeshSize, c.MeshSize, c.Events, c.Checkpoints, c.BatchSize, c.BaseSeed)
	for _, cp := range r.Checkpoints {
		fmt.Fprintf(&b, "checkpoint %d/%d: events=%d applied=%d faults=%d components=%d regions=%d disabled=%d unsafe=%d digest=%016x\n",
			cp.Round, len(r.Checkpoints), cp.Events, cp.Applied, cp.Faults, cp.Components, cp.Regions, cp.Disabled, cp.Unsafe, cp.Digest)
	}
	fmt.Fprintf(&b, "stress OK: %d shard snapshots differentially verified against core.Construct, each with its route planner\n", r.Verified)
	return b.String()
}

// stressShard is the driver's view of one shard: its precomputed event
// stream split into per-round chunks, and the expected state the driver
// replays independently of the shard layer.
type stressShard struct {
	name    string
	shard   *shard.Shard[grid.Coord, grid.Mesh]
	chunks  [][]engine.Event
	faults  *nodeset.Set // expected fault set (driver-side replay)
	applied uint64       // expected shard version
	events  int          // cumulative events submitted
	pairs   []routing.Query
}

// stressPairs is how many seeded source/destination pairs each shard's
// planner routes at a checkpoint.
const stressPairs = 64

// Stress runs the scenario and differentially verifies every shard at
// every checkpoint. It returns an error describing the first divergence;
// a nil error means every shard matched a from-scratch core.Construct at
// every checkpoint.
func Stress(cfg StressConfig) (*StressReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 64
	}

	mesh := grid.New(cfg.MeshSize, cfg.MeshSize)
	mgrCfg := shard.Config{MaxResident: cfg.MaxResident, DataDir: cfg.DataDir, CompactBytes: cfg.CompactBytes}
	mgr := shard.NewManager(mgrCfg)
	// mgr is reassigned by crash/recover cycles; close whichever is current.
	defer func() { mgr.Close() }()
	var crashRng *rand.Rand
	if cfg.Crash {
		crashRng = rand.New(rand.NewSource(cfg.BaseSeed ^ 0x57A1))
	}

	// Precompute every shard's deterministic stream and register the
	// shards. Streams reuse the churn generator: warm-up arrivals to the
	// shard's steady-state density, then arrival/repair churn.
	shards := make([]*stressShard, cfg.Shards)
	for i := range shards {
		per := cfg.Events / cfg.Shards
		if i < cfg.Events%cfg.Shards {
			per++
		}
		warm := stressWarmup(cfg.MeshSize, i)
		churn := Churn2D(cfg.MeshSize, warm, per-warm, cfg.BaseSeed+int64(i)*1_000_003)
		name := fmt.Sprintf("mesh-%03d", i)
		sh, err := mgr.Create(name, mesh)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.BaseSeed + int64(i)))
		pairs := make([]routing.Query, stressPairs)
		for k := range pairs {
			pairs[k] = routing.Query{
				Src: grid.XY(rng.Intn(mesh.W), rng.Intn(mesh.H)),
				Dst: grid.XY(rng.Intn(mesh.W), rng.Intn(mesh.H)),
			}
		}
		shards[i] = &stressShard{
			name:   name,
			shard:  sh,
			chunks: splitChunks(churn.Sequence(), cfg.Checkpoints),
			faults: nodeset.New(mesh),
			pairs:  pairs,
		}
	}

	rep := &StressReport{Config: cfg}
	rep.Config.BatchSize = batchSize
	for round := 0; round < cfg.Checkpoints; round++ {
		// Fan this round's chunks out to the clients. Each shard's chunk is
		// submitted by exactly one client, in stream order, as a series of
		// BatchSize submissions interleaved with snapshot reads and planner
		// fetches — so shards progress concurrently while every per-shard
		// history stays deterministic, and each planner is built from the
		// one memoized a batch earlier (from nothing after an eviction).
		tasks := make(chan *stressShard)
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		var failed atomic.Bool
		fail := func(err error) {
			errOnce.Do(func() { firstErr = err })
			failed.Store(true)
		}
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// After a failure, workers keep draining tasks without
				// working them so the producer below never blocks on an
				// unbuffered channel with no receivers left.
				for ss := range tasks {
					if failed.Load() {
						continue
					}
					chunk := ss.chunks[round]
					for start := 0; start < len(chunk); start += batchSize {
						end := start + batchSize
						if end > len(chunk) {
							end = len(chunk)
						}
						if _, err := ss.shard.Apply(chunk[start:end]); err != nil {
							fail(fmt.Errorf("%s round %d: %w", ss.name, round+1, err))
							break
						}
						// A wait-free read between submissions, exercising
						// concurrent readers (and rebuilds after eviction).
						if _, err := ss.shard.Read(); err != nil {
							fail(fmt.Errorf("%s round %d read: %w", ss.name, round+1, err))
							break
						}
						if _, _, _, err := ss.shard.Planner(); err != nil {
							fail(fmt.Errorf("%s round %d planner: %w", ss.name, round+1, err))
							break
						}
					}
				}
			}()
		}
		for _, ss := range shards {
			tasks <- ss
		}
		close(tasks)
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}

		cp, err := checkpoint(shards, round)
		if err != nil {
			return nil, err
		}
		rep.Checkpoints = append(rep.Checkpoints, cp)
		rep.Verified += len(shards)

		// Crash mode: at seeded-random checkpoints (never the last — the
		// final state must come from the serving path the report renders),
		// kill the process-equivalent and recover from disk.
		if crashRng != nil && round < cfg.Checkpoints-1 && crashRng.Intn(3) > 0 {
			next, err := crashRecover(mgr, mgrCfg, cfg.DataDir, shards, crashRng, rep)
			if err != nil {
				return nil, err
			}
			mgr = next
			rep.Crashes++
		}
	}

	harvestOps(shards, &rep.Ops)
	return rep, nil
}

// harvestOps folds every shard's operational counters into the running
// totals. Counters are per manager incarnation, so crash mode harvests
// before each teardown and once at the end; the sum is the run's truth.
func harvestOps(shards []*stressShard, ops *StressOps) {
	for _, ss := range shards {
		st := ss.shard.Stats()
		ops.Requests += st.Requests
		ops.Batches += st.Batches
		ops.Evictions += st.Evictions
		ops.Rebuilds += st.Rebuilds
	}
}

// crashRecover is one kill/recover cycle: tear the manager down, injure a
// random victim's log with a torn tail (a header promising more bytes
// than were written — exactly what dying mid-append leaves behind),
// then recover the namespace from disk and hold it to the zero-loss gate:
// every shard's recovered version and fault set must equal the
// acknowledged state the driver tracked independently.
func crashRecover(old *shard.Manager, mgrCfg shard.Config, dataDir string, shards []*stressShard, rng *rand.Rand, rep *StressReport) (*shard.Manager, error) {
	harvestOps(shards, &rep.Ops)
	// Close() drains mailboxes, but at a checkpoint they are already empty
	// (every Apply was acknowledged), so this is equivalent to a SIGKILL at
	// a quiescent instant; the torn-tail injection below supplies the
	// mid-append crash shape on top.
	old.Close()

	victim := shards[rng.Intn(len(shards))]
	logPath := wal.LogPath(filepath.Join(dataDir, victim.name))
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stress crash: injure %s: %w", victim.name, err)
	}
	torn := []byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}
	if _, err := f.Write(torn); err != nil {
		f.Close()
		return nil, fmt.Errorf("stress crash: injure %s: %w", victim.name, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rep.TornTails++

	next := shard.NewManager(mgrCfg)
	names, err := next.Recover()
	if err != nil {
		next.Close()
		return nil, fmt.Errorf("stress crash: recover: %w", err)
	}
	if len(names) != len(shards) {
		next.Close()
		return nil, fmt.Errorf("stress crash: recovered %d meshes, expected %d", len(names), len(shards))
	}
	for _, ss := range shards {
		sh, err := shard.Get[grid.Coord, grid.Mesh](next, ss.name)
		if err != nil {
			next.Close()
			return nil, fmt.Errorf("stress crash: %s: %w", ss.name, err)
		}
		v, err := sh.Read()
		if err != nil {
			next.Close()
			return nil, fmt.Errorf("stress crash: %s: %w", ss.name, err)
		}
		if v.Version != ss.applied {
			next.Close()
			return nil, fmt.Errorf("stress crash: %s recovered at version %d, %d events were acknowledged — durability violated",
				ss.name, v.Version, ss.applied)
		}
		if !v.Snapshot.Faults().Equal(ss.faults) {
			next.Close()
			return nil, fmt.Errorf("stress crash: %s fault set diverged after recovery", ss.name)
		}
		ss.shard = sh
	}
	return next, nil
}

// checkpoint replays each shard's round chunk into the driver's expected
// state, differentially verifies the shard's snapshot against a
// from-scratch core.Construct (kernel.Snapshot.Verify) and its memoized
// planner against one built from scratch over the construction's disabled
// set (routing.Planner.Verify), and sums the shards into the checkpoint's
// totals and digest.
func checkpoint(shards []*stressShard, round int) (StressCheckpoint, error) {
	cp := StressCheckpoint{Round: round + 1}
	digest := fnv.New64a()
	for _, ss := range shards {
		chunk := ss.chunks[round]
		ss.events += len(chunk)
		ss.applied += uint64(kernel.Replay(ss.faults, chunk...))

		v, err := ss.shard.Read()
		if err != nil {
			return cp, fmt.Errorf("%s checkpoint %d: %w", ss.name, round+1, err)
		}
		snap := v.Snapshot
		if v.Version != ss.applied {
			return cp, fmt.Errorf("%s checkpoint %d: version %d, expected %d applied events",
				ss.name, round+1, v.Version, ss.applied)
		}
		ref := core.Reference(ss.faults)
		if err := snap.Verify(ref); err != nil {
			return cp, fmt.Errorf("%s checkpoint %d: %w", ss.name, round+1, err)
		}
		regions, err := verifyPlanner(ss, ref.Disabled)
		if err != nil {
			return cp, fmt.Errorf("%s checkpoint %d: %w", ss.name, round+1, err)
		}

		cp.Events += ss.events
		cp.Applied += v.Version
		cp.Faults += snap.Faults().Len()
		cp.Components += len(snap.Polygons())
		cp.Regions += regions
		cp.Disabled += snap.Disabled().Len()
		cp.Unsafe += snap.Unsafe().Len()
		fmt.Fprintf(digest, "%s|%d|%v|%v|%v|%d\n",
			ss.name, v.Version, snap.Faults(), snap.Disabled(), snap.Unsafe(), len(snap.Polygons()))
	}
	cp.Digest = digest.Sum64()
	return cp, nil
}

// verifyPlanner checks the shard's memoized route planner, which the
// round's churn and evictions built from its predecessors, against a
// planner built from scratch over the oracle's disabled set: the same
// regions, and the same routes, hop counts and errors on the shard's pair
// set. It returns the planner's region count.
func verifyPlanner(ss *stressShard, disabled *nodeset.Set) (int, error) {
	p, v, _, err := ss.shard.Planner()
	if err != nil {
		return 0, err
	}
	if v.Version != ss.applied {
		return 0, fmt.Errorf("planner at version %d, expected %d", v.Version, ss.applied)
	}
	if err := p.Verify(routing.NewPlannerForBlocked(disabled.Mesh(), disabled), ss.pairs); err != nil {
		return 0, fmt.Errorf("planner diverged: %w", err)
	}
	return len(p.Regions()), nil
}

// splitChunks cuts a sequence into n contiguous, nearly equal chunks
// (possibly empty when the sequence is shorter than n).
func splitChunks(seq []engine.Event, n int) [][]engine.Event {
	out := make([][]engine.Event, n)
	for i := 0; i < n; i++ {
		out[i] = seq[i*len(seq)/n : (i+1)*len(seq)/n]
	}
	return out
}
