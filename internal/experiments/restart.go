package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/shard"
)

// RestartConfig describes one durable mesh prepared for restart timing: a
// clustered base fault layout loaded in one batch, then small churn
// batches behind the compaction threshold, written through a
// shard.Manager exactly as mfpd writes them. A restart of the prepared
// directory pays a snapshot decode, the log tail and one engine build.
type RestartConfig struct {
	// Name is the mesh name (and the layout's label).
	Name string
	// W, H, D are the mesh dimensions; D is 0 for a 2-D mesh.
	W, H, D int
	// BaseFaults clustered faults are kept at least Margin off the border.
	BaseFaults, Margin int
	// Batches churn batches of 1-8 events follow the base load.
	Batches int
	// CompactBytes is the compaction threshold the mesh is written with.
	CompactBytes int64
	// Seed fixes the base layout and the churn.
	Seed int64
}

// RestartLayouts are the meshes of the e2ebench churn2d and churn3d
// workloads (layout seed 1): the two restarts its setup_s metric times.
func RestartLayouts() []RestartConfig {
	return []RestartConfig{
		{Name: "churn2d", W: 512, H: 512, BaseFaults: 1300, Margin: 2, Batches: 200, CompactBytes: 16 << 10, Seed: 1},
		{Name: "churn3d", W: 64, H: 64, D: 64, BaseFaults: 2600, Margin: 1, Batches: 200, CompactBytes: 16 << 10, Seed: 1},
	}
}

// Label names the layout for benchmark records; it encodes the whole
// fixture so records of different scales never compare.
func (c RestartConfig) Label() string {
	mesh := fmt.Sprintf("%dx%d", c.W, c.H)
	if c.D > 0 {
		mesh += fmt.Sprintf("x%d", c.D)
	}
	return fmt.Sprintf("restart/%s/mesh%s/faults%d/batches%d/seed%d", c.Name, mesh, c.BaseFaults, c.Batches, c.Seed)
}

// Prepare writes the mesh into a fresh data directory.
func (c RestartConfig) Prepare(dataDir string) error {
	mgr := shard.NewManager(shard.Config{DataDir: dataDir, CompactBytes: c.CompactBytes})
	defer mgr.Close()
	if c.D > 0 {
		inner := grid3.New(c.W-2*c.Margin, c.H-2*c.Margin, c.D-2*c.Margin)
		var base []grid3.Coord
		mfp3d.ClusteredFaults(inner, c.BaseFaults, c.Seed).Each(func(p grid3.Coord) {
			base = append(base, grid3.XYZ(p.X+c.Margin, p.Y+c.Margin, p.Z+c.Margin))
		})
		sh, err := mgr.Create3(c.Name, grid3.New(c.W, c.H, c.D))
		if err != nil {
			return err
		}
		return prepareShard(sh, base, c)
	}
	m := grid.New(c.W, c.H)
	sh, err := mgr.Create(c.Name, m)
	if err != nil {
		return err
	}
	return prepareShard(sh, fault.InjectWithMargin(m, fault.Clustered, c.Seed, c.BaseFaults, c.Margin).Coords(), c)
}

// prepareShard loads base, then runs the churn: each event either clears
// a fault an earlier churn event added or adds a healthy node adjacent to
// a base fault, so the fault count stays near the base.
func prepareShard[C any, T kernel.Topology[C]](sh *shard.Shard[C, T], base []C, c RestartConfig) error {
	mesh := sh.Mesh()
	events := make([]kernel.Event[C], len(base))
	for i, p := range base {
		events[i] = kernel.Event[C]{Op: kernel.Add, Node: p}
	}
	if _, err := sh.Apply(events); err != nil {
		return err
	}
	faulty := kernel.SetOf(mesh, base...)
	rng := rand.New(rand.NewSource(c.Seed))
	var added, neigh []C
	for b := 0; b < c.Batches; b++ {
		k := 1 + rng.Intn(8)
		batch := make([]kernel.Event[C], 0, k)
		for len(batch) < k {
			if len(added) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(added))
				p := added[i]
				added[i] = added[len(added)-1]
				added = added[:len(added)-1]
				faulty.Remove(p)
				batch = append(batch, kernel.Event[C]{Op: kernel.Clear, Node: p})
				continue
			}
			neigh = mesh.Adjacent(base[rng.Intn(len(base))], neigh[:0])
			if p := neigh[rng.Intn(len(neigh))]; faulty.Add(p) {
				added = append(added, p)
				batch = append(batch, kernel.Event[C]{Op: kernel.Add, Node: p})
			}
		}
		if _, err := sh.Apply(batch); err != nil {
			return err
		}
	}
	return nil
}

// Restart is what mfpd does between launch and its first answered read,
// minus the process and the listener: a manager on dataDir recovers every
// persisted mesh, then mesh name answers a read. The caller closes the
// returned manager.
func Restart(dataDir, name string) (*shard.Manager, error) {
	mgr := shard.NewManager(shard.Config{DataDir: dataDir})
	if _, err := mgr.Recover(); err != nil {
		mgr.Close()
		return nil, err
	}
	t, err := mgr.Lookup(name)
	switch sh := t.(type) {
	case *shard.Shard[grid.Coord, grid.Mesh]:
		_, err = sh.Read()
	case *shard.Shard[grid3.Coord, grid3.Mesh]:
		_, err = sh.Read()
	}
	if err != nil {
		mgr.Close()
		return nil, err
	}
	return mgr, nil
}
