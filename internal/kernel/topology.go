// Package kernel is the dimension-generic geometry core of the module: one
// topology abstraction, one dense node bitset, one implementation of the
// paper's component/closure machinery, and one incremental engine — all
// parameterized over a coordinate type, so the 2-D mesh of the paper and
// the 3-D mesh of its stated future work are instantiations of the same
// code instead of parallel copies.
//
// The layering is:
//
//   - Topology[C] abstracts a finite mesh over coordinate type C: dense
//     indexing, the link adjacency of the network (4 neighbours in 2-D,
//     6 in 3-D), the merge-process adjacency of the paper's Definition 2
//     (8 neighbours in 2-D, 26 in 3-D), and a per-axis decomposition that
//     lets the orthogonal-convexity machinery treat "rows and columns" as
//     "axis lines" in any dimension.
//   - Set[C, T] is the bitset over a topology that every fault-region
//     algorithm manipulates. It keeps the mesh's row-major word layout but
//     stores only a window of it, from the first to the last possibly-set
//     word, so a small component costs its own extent rather than the
//     mesh; internal/nodeset and internal/nodeset3 are its 2-D and 3-D
//     instantiations.
//   - Regions, Closure, FillOnce and IsOrthoConvex express the component
//     merge and the orthogonal convex closure once. The closure iterates
//     axis fills to a fixpoint: in 2-D one pass always suffices for
//     connected regions (property-tested in internal/polygon), in 3-D fills
//     along one axis can open gaps along another, so the loop cascades.
//   - Engine[C, T] maintains per-component minimum polygons (polytopes)
//     incrementally under fault churn, with copy-on-write snapshots;
//     internal/engine and internal/engine3 instantiate it.
//   - BoxIndex is the engine's one spatial index: a bucket grid over the
//     mesh's axes holding every live component's bounding Box (which is
//     also its polygon's). It answers "which components overlap this
//     box" from the buckets the box covers, so the bookkeeping around an
//     event follows the components near it, not the component count:
//     publish repairs a persistent disabled union only where the batch
//     removed polygons, and the 3-D cuboid block model re-fills only the
//     cuboids that overlap one a repair shrank.
//
// Error strings deliberately keep the prefixes of the packages that front
// the kernel (engine:, mfp:), so the refactor is invisible to callers that
// match on messages.
package kernel

import "fmt"

// Topology describes a finite mesh over coordinate type C. Implementations
// are small value types (grid.Mesh, grid3.Mesh) compared with ==, and every
// method must be a pure function of the topology value, so that sets and
// engines built over equal topologies are interchangeable.
type Topology[C any] interface {
	comparable
	fmt.Stringer

	// Size returns the number of nodes.
	Size() int
	// Contains reports whether c is a node address inside the mesh.
	Contains(c C) bool
	// Index maps an in-mesh coordinate to a dense index in [0, Size).
	Index(c C) int
	// CoordAt is the inverse of Index.
	CoordAt(i int) C

	// Links appends the link neighbours of c (the nodes connected to c in
	// the network: 4 in a 2-D mesh, 6 in 3-D) to buf.
	Links(c C, buf []C) []C
	// Adjacent appends the adjacent nodes of c per the merge process
	// (Definition 2's 8-neighbourhood in 2-D, the 26-neighbourhood in 3-D)
	// to buf.
	Adjacent(c C, buf []C) []C

	// Axes returns the number of axes (2 or 3).
	Axes() int
	// AxisLen returns the node count along the given axis.
	AxisLen(axis int) int
	// AxisPos returns c's position along the given axis.
	AxisPos(axis int, c C) int
	// AtAxes builds the coordinate with the given per-axis positions
	// (vals[axis] for each axis in [0, Axes)). vals is not retained.
	AtAxes(vals []int) C

	// AxisStride returns the dense-index distance between two nodes that
	// are axis-neighbours. Indexing must be linear in the axis positions:
	//
	//	Index(c) = Σ_axis AxisPos(axis, c) * AxisStride(axis)
	//
	// with axis 0 contiguous (stride 1) and stride(a+1) =
	// stride(a)*AxisLen(a) — i.e. row-major layout. The word-parallel
	// geometry kernels rely on this contract to turn coordinate walks into
	// index arithmetic and whole-word bitset operations, and Set's word
	// window relies on it to bound a region by its first and last index:
	// every node of a connected region, and every node its closure adds,
	// lies between the two.
	AxisStride(axis int) int
	// Wraps reports whether the topology has wraparound links (a torus).
	// The word-level flood in Regions assumes non-wrapping axis lines and
	// falls back to the per-neighbour walk when Wraps is true.
	Wraps() bool
}
