// Incremental maintenance of labelling scheme 1 (the rectangular faulty
// block model), plugged into the generic kernel engine as its 2-D block
// model. The engine needs the scheme-1 unsafe set to classify nodes — a
// node inside a faulty block but outside every polygon is "enabled", not
// "safe" — and maintains it by local fixpoint propagation instead of
// re-running the whole-mesh synchronous simulation of block.Build.
//
// Two structural facts make the events local:
//
//   - Scheme 1 is monotone in the fault set: adding a fault can only turn
//     more nodes unsafe. The old fixpoint therefore lies below the new one,
//     and chaotic iteration from it — re-checking exactly the nodes whose
//     neighbourhood changed, transitively — converges to the new fixpoint.
//
//   - At a fixpoint, distinct faulty blocks are never 4-adjacent (adjacent
//     unsafe nodes are by definition the same 4-connected block). Clearing
//     a fault therefore only concerns the one block that contained it: the
//     block region is reset and regrown from its remaining faults, and by
//     monotonicity the regrowth stays inside the old rectangle and cannot
//     interact with any other block.
//
// This fixpoint has no direct analogue in 3-D (the "unsafe neighbours in
// both dimensions" rule does not generalize to the cuboid model), which is
// why the block model is the one piece of the engine that stays
// per-topology: internal/engine3 plugs in the bounding-cuboid model
// instead.
package engine

import (
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// scheme1 is the kernel.BlockModel of the 2-D engine: the scheme-1 unsafe
// set kept at its fixpoint by local propagation. faults is the engine's
// live fault set (read-only here); unsafe is owned by the model and
// mutated in place.
type scheme1 struct {
	mesh   grid.Mesh
	faults *nodeset.Set
	unsafe *nodeset.Set

	// Reusable working memory of Grow/Shrink (the engine serializes block-
	// model calls under its lock): the visited marks and the coordinate
	// buffers of Shrink's block collection, and propagate's worklist.
	// seen is empty between calls: Shrink unmarks exactly the block it
	// marked, so collecting a block costs the block, not the mesh.
	seen     *nodeset.Set
	region   []grid.Coord
	frontier []grid.Coord
	queue    []grid.Coord
}

// newScheme1 ignores the engine's box index: the fixpoint is defined on
// the fault set alone, and its working sets are fields the model owns.
func newScheme1(m grid.Mesh, faults *nodeset.Set, _ *kernel.BoxIndex) kernel.BlockModel[grid.Coord, grid.Mesh] {
	return &scheme1{mesh: m, faults: faults, unsafe: nodeset.New(m), seen: nodeset.New(m)}
}

// Unsafe returns a snapshot copy of the maintained fixpoint, which is
// already global.
func (s *scheme1) Unsafe() *nodeset.Set { return s.unsafe.Clone() }

// blockRuleFires reports whether scheme 1 turns the (currently safe) node
// unsafe: a faulty or unsafe neighbour in the X dimension and one in the Y
// dimension. The unsafe set includes the faults, and set lookups outside
// the mesh report false, which matches the "neighbour exists" checks of
// block.Build's rule on a non-torus mesh.
func (s *scheme1) blockRuleFires(c grid.Coord) bool {
	if s.unsafe.Has(grid.XY(c.X+1, c.Y)) || s.unsafe.Has(grid.XY(c.X-1, c.Y)) {
		return s.unsafe.Has(grid.XY(c.X, c.Y+1)) || s.unsafe.Has(grid.XY(c.X, c.Y-1))
	}
	return false
}

// propagate runs chaotic iteration of scheme 1 from the given worklist:
// every queued node is re-checked, and a node that turns unsafe enqueues
// its link neighbours, whose rule inputs just changed.
func (s *scheme1) propagate(queue []grid.Coord) {
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if s.unsafe.Has(c) || !s.blockRuleFires(c) {
			continue
		}
		s.unsafe.Add(c)
		queue = s.mesh.Neighbors4(c, queue)
	}
	s.queue = queue[:0] // keep the grown capacity for the next event
}

// Grow incorporates a new fault into the scheme-1 fixpoint. The touched
// components' boxes are not needed — the fixpoint is defined on the fault
// set alone. When the fault lands on an already-unsafe node (inside an
// existing block) nothing else can change; otherwise the change propagates
// outward from the fault.
func (s *scheme1) Grow(c grid.Coord, _ []kernel.Box, _ kernel.Box) {
	if !s.unsafe.Add(c) {
		return
	}
	s.propagate(s.mesh.Neighbors4(c, s.queue[:0]))
}

// Load builds the fixpoint of a whole fault set on a model that has seen
// no faults: the faults turn unsafe, then propagation runs from all their
// link neighbours at once. Chaotic iteration from below reaches the least
// fixpoint above the faults whatever the order, which is also where one
// Grow per fault ends.
func (s *scheme1) Load([]kernel.Box) {
	s.unsafe.CopyFrom(s.faults)
	queue := s.queue[:0]
	s.faults.Each(func(c grid.Coord) { queue = s.mesh.Neighbors4(c, queue) })
	s.propagate(queue)
}

// Shrink removes a repaired fault from the scheme-1 fixpoint. The fault's
// block is collected (4-connected unsafe region), reset to safe, and
// regrown from the faults that remain in it; the result is the global
// fixpoint for the reduced fault set because no other block borders the
// region (see the package comment above).
func (s *scheme1) Shrink(c grid.Coord, _ kernel.Box, _ []kernel.Box) {
	// Collect the block containing c. c itself is still unsafe: it was a
	// fault a moment ago and faults are always unsafe.
	region := append(s.region[:0], c)
	s.seen.Add(c)
	frontier := append(s.frontier[:0], c)
	var neigh [4]grid.Coord
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, n := range s.mesh.Neighbors4(cur, neigh[:0]) {
			if s.unsafe.Has(n) && s.seen.Add(n) { // unsafe and not yet visited
				region = append(region, n)
				frontier = append(frontier, n)
			}
		}
	}
	s.frontier = frontier[:0]

	// Reset the block (and its visited marks), re-seed it with its
	// remaining faults, and regrow. The whole old region goes on the
	// worklist: a node can be due for re-marking without any neighbour
	// changing first (its unsafe neighbours may all be re-seeded faults).
	for _, n := range region {
		s.seen.Remove(n)
		s.unsafe.Remove(n)
	}
	queue := s.queue[:0]
	for _, n := range region {
		if s.faults.Has(n) {
			s.unsafe.Add(n)
		} else {
			queue = append(queue, n)
		}
	}
	s.region = region[:0]
	s.propagate(queue)
}
