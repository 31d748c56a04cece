// Package routing implements the fault-tolerant routing of the paper's
// Section 2.2: Chalasani and Boppana's extended e-cube routing around
// orthogonal convex fault polygons. It delivers every route around such
// polygons, but its four-virtual-channel assignment is deadlock-free only
// around rectangular faulty blocks (see "Deadlock scope" below).
//
// A message follows the base e-cube (x-y) route — along the row until it
// reaches the destination column, then along the column — until its next
// hop would enter a disabled region. It then becomes "abnormal" and travels
// along the region's boundary ring, clockwise or counterclockwise according
// to its type (EW, WE, NS or SN) and its row relative to the row of travel,
// until the region no longer affects the remaining e-cube path, where it
// becomes "normal" again. Detours use four virtual channels: EW-bound
// messages use vc0 for hops around faulty polygons, WE-bound use vc1,
// NS-bound use vc2 and SN-bound use vc3.
//
// The simulation is hop-level: it produces exact paths and channel usage,
// which is what the deadlock analysis (channel dependency graph) and the
// evaluation of detour overhead need. It assumes, like the literature, that
// fault regions do not touch the mesh border; a route that would need the
// virtual halo fails with ErrBorderRegion.
//
// Cost model: the walk advances a normal message one e-cube segment at a
// time (its row up to the destination column, then that column up to the
// destination), and a segment costs one word scan of a blocked bitset,
// however many hops it spans: the row-major blocked set for a row, and a
// column-major copy of it that the Planner holds for a column. A detour
// costs its ring hops, each with one bounding-box-narrowed probe of the
// remaining e-cube path. Route, Measure and AppendPath are three sinks of
// that one walk: Route records Hops, AppendPath appends the node path to
// a caller's buffer, and Measure only counts, so it pays for segments and
// detours and nothing per normal hop.
//
// Deadlock scope: around rectangular faulty blocks the orientation rules
// keep every detour arc free of direction reversals, so the four-channel
// assignment is cycle-free. Around non-rectangular orthogonal convex
// polygons a detour can reverse (e.g. an EW-bound message stepping east
// into an L-shaped notch), and the channel dependency graph can close a
// cycle. The census test routes all pairs around every fault set of a
// small box: the graph is acyclic for every set under faulty blocks, and
// cyclic in 166 of the 512 3x3 sets and 38,922 of the 65,536 4x4 sets
// under minimum faulty polygons; the wormhole simulator deadlocks on a
// 4-fault L. The full channel discipline that [3] (Chalasani & Boppana,
// "Communication in multicomputers with nonconvex faults") builds for
// that case is beyond this paper's scope, so around polygons the
// dependency graph is a measurement, not an invariant.
package routing

import (
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/nodeset"
)

// MessageType classifies a message by its direction of travel, after the
// paper: EW (east-to-west), WE, NS, or SN.
type MessageType uint8

// The four message types and their virtual channels.
const (
	EW MessageType = iota // travelling west, uses vc0
	WE                    // travelling east, uses vc1
	NS                    // travelling south, uses vc2
	SN                    // travelling north, uses vc3
)

// String returns the paper's name for the message type.
func (t MessageType) String() string {
	switch t {
	case EW:
		return "EW"
	case WE:
		return "WE"
	case NS:
		return "NS"
	case SN:
		return "SN"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// VC returns the virtual channel the type uses around faulty polygons.
func (t MessageType) VC() uint8 { return uint8(t) }

// Errors returned by Route.
var (
	ErrBlockedEndpoint = errors.New("routing: source or destination is disabled")
	ErrBorderRegion    = errors.New("routing: detour requires a region boundary outside the mesh")
	ErrHopBudget       = errors.New("routing: hop budget exhausted (disconnected or livelock)")
)

// Hop is one link traversal of a route.
type Hop struct {
	From, To grid.Coord
	// Type is the message type during the hop; VC is Type.VC().
	Type MessageType
	// Abnormal marks hops taken around a faulty polygon.
	Abnormal bool
}

// Route is a delivered message's trajectory.
type Route struct {
	Src, Dst grid.Coord
	Hops     []Hop
	// AbnormalHops counts hops spent routing around faulty polygons.
	AbnormalHops int
}

// Length returns the number of link traversals.
func (r *Route) Length() int { return len(r.Hops) }

// Path returns the node sequence including the source.
func (r *Route) Path() []grid.Coord {
	out := make([]grid.Coord, 0, len(r.Hops)+1)
	out = append(out, r.Src)
	for _, h := range r.Hops {
		out = append(out, h.To)
	}
	return out
}

// appendExpandedRing appends to dst the 8-adjacent boundary walk converted
// into a 4-connected cycle messages can follow on mesh links: each
// diagonal step is split through the intermediate cell that lies outside
// the region. (Both intermediates cannot be blocked: a second region
// within one hop of the first would have merged with it under
// 8-connectivity.)
func appendExpandedRing(dst []grid.Coord, region *nodeset.Set, walk []grid.Coord) []grid.Coord {
	if len(walk) < 2 {
		return append(dst, walk...)
	}
	n := len(dst)
	// The expansion may repeat cells where two diagonal steps share an
	// intermediate; immediate repeats collapse as cells are appended, and
	// ones across the wrap at the end.
	push := func(c grid.Coord) {
		if len(dst) == n || dst[len(dst)-1] != c {
			dst = append(dst, c)
		}
	}
	for i, c := range walk {
		push(c)
		next := walk[(i+1)%len(walk)]
		if c.X != next.X && c.Y != next.Y {
			mid := grid.XY(c.X, next.Y)
			if region.Has(mid) {
				mid = grid.XY(next.X, c.Y)
			}
			push(mid)
		}
	}
	for len(dst)-n > 1 && dst[n] == dst[len(dst)-1] {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// classify returns the message type for the current position.
func classify(cur, dst grid.Coord) MessageType {
	switch {
	case dst.X > cur.X:
		return WE
	case dst.X < cur.X:
		return EW
	case dst.Y < cur.Y:
		return NS
	default:
		return SN
	}
}

// orientation returns the ring-walk step direction per the paper's rules:
// the orientation of a WE-bound message is clockwise above its row of
// travel (the destination row) and counterclockwise below it; EW-bound is
// the mirror; NS- and SN-bound messages don't care (clockwise here,
// deterministically). The traced boundary walk advances clockwise in this
// module's Y-north frame, so clockwise follows it forward (+1) and
// counterclockwise backward (-1).
func orientation(t MessageType, cur, dst grid.Coord) int {
	const cw, ccw = +1, -1
	switch t {
	case WE:
		if cur.Y > dst.Y {
			return cw
		}
		return ccw
	case EW:
		if cur.Y > dst.Y {
			return ccw
		}
		return cw
	default:
		return cw
	}
}
