// Package engine3 is the 3-D instantiation of the kernel's incremental
// engine: the paper's "higher dimension meshes" future work, maintained
// under fault churn instead of rebuilt per event. Engine, Snapshot and
// Event are kernel types pinned at grid3.Mesh, so AddFault merges the
// touched 26-connected component and re-closes only its minimum orthogonal
// convex polytope, ClearFault re-splits only the component that lost the
// fault, and snapshots share every untouched polytope copy-on-write —
// exactly the 2-D engine's behaviour, from the same generic code.
//
// The one per-topology choice is the block model behind Snapshot.Unsafe:
// the 2-D scheme-1 fixpoint has no 3-D analogue, so the 3-D engine
// maintains the union of component bounding cuboids — mfp3d's
// DisabledCuboid, the 3-D faulty block model — which the differential
// tests pin against batch mfp3d.Build after every event.
//
// The shard layer and mfpd host 3-D engines next to 2-D ones: create a
// mesh with a depth and POST events shaped {"op":"add","x":..,"y":..,
// "z":..}; the polygons endpoint then serves polytopes. Routing remains
// 2-D-only.
package engine3

import (
	"fmt"
	"io"

	"repro/internal/grid3"
	"repro/internal/kernel"
	"repro/internal/mfp3d"
	"repro/internal/nodeset3"
)

// Op is the kind of a fault event.
type Op = kernel.Op

// The two event ops.
const (
	// Add marks a node faulty (a fault arrival).
	Add = kernel.Add
	// Clear marks a faulty node repaired (a fault departure).
	Clear = kernel.Clear
)

// Event is one fault arrival or repair on a 3-D mesh; the wire format is
// {"op":"add","x":3,"y":4,"z":5} (see kernel.Event and grid3.Coord's JSON
// codec, which rejects events missing a z).
type Event = kernel.Event[grid3.Coord]

// Engine maintains the polytope constructions of a 3-D mesh under a stream
// of fault events — kernel.Engine pinned at grid3.Mesh.
type Engine = kernel.Engine[grid3.Coord, grid3.Mesh]

// Snapshot is one immutable view of a 3-D engine's state: components,
// minimum faulty polytopes, their disabled union, and the cuboid unsafe
// set.
type Snapshot = kernel.Snapshot[grid3.Coord, grid3.Mesh]

// New returns an engine over an empty fault set. Tori are rejected, like
// the 2-D engine and the batch mfp3d construction.
func New(m grid3.Mesh) (*Engine, error) {
	if m.Torus {
		return nil, fmt.Errorf("engine3: %v not supported (mesh only)", m)
	}
	return kernel.NewEngine(m, newCuboids)
}

// ValidateEvents checks that every event lies inside the mesh and carries
// a known op, returning the first violation. See kernel.ValidateEvents.
func ValidateEvents(m grid3.Mesh, events []Event) error {
	return kernel.ValidateEvents(m, events)
}

// Replay applies events to a plain fault set and returns how many changed
// it. See kernel.Replay.
func Replay(faults *nodeset3.Set, events ...Event) int {
	return kernel.Replay(faults, events...)
}

// DecodeEvents decodes a JSON array of 3-D wire events from r — the
// request body format of mfpd's events endpoint on a 3-D mesh. See
// kernel.DecodeEvents.
func DecodeEvents(r io.Reader) ([]Event, error) {
	return kernel.DecodeEvents[grid3.Coord](r)
}

// SnapshotOf builds the snapshot of a static fault set in one shot: a
// fresh engine fed every fault as one batch of arrivals, which the kernel
// builds in one pass.
func SnapshotOf(m grid3.Mesh, faults *nodeset3.Set) (*Snapshot, error) {
	e, err := New(m)
	if err != nil {
		return nil, err
	}
	events := make([]Event, 0, faults.Len())
	faults.Each(func(c grid3.Coord) {
		events = append(events, Event{Op: Add, Node: c})
	})
	_, snap, err := e.Apply(events)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// cuboids is the kernel.BlockModel of the 3-D engine: the union of
// component bounding cuboids (mfp3d's DisabledCuboid), maintained
// incrementally. The cuboids themselves live in the engine's box index —
// one box per live component, under its cache entry's slot — so the model
// keeps only the union, rasterized in a persistent bitset that every event
// patches with word-parallel row fills (mfp3d.RasterizeBox / ClearBox)
// instead of re-rasterizing every component at snapshot publication:
//
//   - Grow is exact without looking at any node set: bounding boxes
//     compose under union, so the merged component's cuboid is the union
//     of the replaced components' cuboids extended by the new fault. The
//     replaced cuboids are already rasterized and row fills are
//     idempotent, so ORing the (possibly grown) new cuboid patches the
//     union in place — and when a single component absorbs a fault that
//     lands inside its cuboid, nothing needs touching at all.
//
//   - Shrink re-rasterizes only the rows the dying component's cuboid
//     covered: clear that cuboid, then re-fill its intersection with each
//     surviving cuboid that overlaps it — the fragments' among them — as
//     the index reports them. Cuboids that miss it are never visited, and
//     bits outside it are never touched. An interior repair — one
//     fragment with unchanged bounds — skips the re-rasterization.
//
// The maintained bitset therefore always equals the union of the indexed
// boxes, which is byte-identical to batch mfp3d.Build's DisabledCuboid;
// the differential tests pin this after every event.
type cuboids struct {
	index   *kernel.BoxIndex // the engine's: every live component's cuboid
	unsafe  *nodeset3.Set    // persistent union of the cuboids, patched per event
	hits    []int32          // query buffer, reused across events
	metrics cuboidMetrics
}

// newCuboids ignores the engine's fault set: the indexed boxes carry all
// the state the model needs.
func newCuboids(m grid3.Mesh, _ *nodeset3.Set, index *kernel.BoxIndex) kernel.BlockModel[grid3.Coord, grid3.Mesh] {
	return &cuboids{
		index:   index,
		unsafe:  nodeset3.New(m),
		metrics: newCuboidMetrics(),
	}
}

// cuboid converts a kernel box over the 3-D mesh's axes to a grid3.Box
// (an empty box stays empty).
func cuboid(b kernel.Box) grid3.Box {
	return grid3.Box{
		Min: grid3.XYZ(int(b.Lo[0]), int(b.Lo[1]), int(b.Lo[2])),
		Max: grid3.XYZ(int(b.Hi[0]), int(b.Hi[1]), int(b.Hi[2])),
	}
}

// Grow incorporates a fault arrival: the cuboids of the merged-away
// components (already rasterized) compose into the new component's cuboid.
func (u *cuboids) Grow(_ grid3.Coord, merged []kernel.Box, result kernel.Box) {
	if len(merged) == 1 && merged[0] == result {
		return // the fault landed inside its component's cuboid
	}
	u.metrics.deltaRows.Add(uint64(mfp3d.RasterizeBox(u.unsafe, cuboid(result))))
}

// Load rasterizes each component's cuboid once, on a model that has seen
// no faults.
func (u *cuboids) Load(boxes []kernel.Box) {
	rows := 0
	for _, b := range boxes {
		rows += mfp3d.RasterizeBox(u.unsafe, cuboid(b))
	}
	u.metrics.deltaRows.Add(uint64(rows))
}

// Shrink incorporates a repair: only the dropped cuboid's rows are
// re-rasterized, from the surviving cuboids the index finds overlapping
// it.
func (u *cuboids) Shrink(_ grid3.Coord, removed kernel.Box, fragments []kernel.Box) {
	if len(fragments) == 1 && fragments[0] == removed {
		return // interior repair: the surviving fragment keeps the cuboid
	}
	rows := mfp3d.ClearBox(u.unsafe, cuboid(removed))
	u.hits = u.index.Query(removed, u.hits[:0])
	for _, slot := range u.hits {
		rows += mfp3d.RasterizeBox(u.unsafe, cuboid(u.index.Box(slot).Intersect(removed)))
	}
	u.metrics.rebuildRows.Add(uint64(rows))
}

// Unsafe hands the engine a copy of the maintained union, which is
// already current. (The copy is the publish-time cost — one memcpy of the
// union's window — replacing the full re-rasterization of every component
// the stateless model paid here.)
func (u *cuboids) Unsafe() *nodeset3.Set { return u.unsafe.Clone() }
