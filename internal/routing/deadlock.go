package routing

import (
	"repro/internal/grid"
)

// Channel identifies one directed virtual channel: the virtual lane vc of
// the physical link leaving From in direction Dir. The paper's scheme puts
// four virtual channels (vc0..vc3) on every link around faulty polygons.
type Channel struct {
	From grid.Coord
	Dir  grid.Direction
	VC   uint8
}

// Channel returns the virtual channel the hop occupies.
func (h Hop) Channel() Channel {
	var d grid.Direction
	switch {
	case h.To.X == h.From.X+1:
		d = grid.East
	case h.To.X == h.From.X-1:
		d = grid.West
	case h.To.Y == h.From.Y+1:
		d = grid.North
	default:
		d = grid.South
	}
	return Channel{From: h.From, Dir: d, VC: h.Type.VC()}
}

// DependencyGraph accumulates channel-dependency edges from observed
// routes: a message holding channel c while requesting channel c' creates
// the dependency c -> c'. Deadlock freedom requires this graph to be
// acyclic (Dally & Seitz); sampling it over the routes of a configuration
// machine-checks the paper's virtual-channel argument on that
// configuration.
type DependencyGraph struct {
	edges map[Channel]map[Channel]bool
}

// NewDependencyGraph returns an empty graph.
func NewDependencyGraph() *DependencyGraph {
	return &DependencyGraph{edges: map[Channel]map[Channel]bool{}}
}

// AddRoute records the dependencies induced by a delivered route.
func (g *DependencyGraph) AddRoute(r *Route) {
	for i := 1; i < len(r.Hops); i++ {
		g.addEdge(r.Hops[i-1].Channel(), r.Hops[i].Channel())
	}
}

// Merge adds every dependency of o to g, so graphs filled from disjoint
// sets of routes (one per worker) combine into the graph of all of them.
func (g *DependencyGraph) Merge(o *DependencyGraph) {
	for from, tos := range o.edges {
		for to := range tos {
			g.addEdge(from, to)
		}
	}
}

func (g *DependencyGraph) addEdge(from, to Channel) {
	set, ok := g.edges[from]
	if !ok {
		set = map[Channel]bool{}
		g.edges[from] = set
	}
	set[to] = true
}

// Channels returns the number of distinct channels seen.
func (g *DependencyGraph) Channels() int {
	seen := map[Channel]bool{}
	for from, tos := range g.edges {
		seen[from] = true
		for to := range tos {
			seen[to] = true
		}
	}
	return len(seen)
}

// Edges returns the number of dependency edges.
func (g *DependencyGraph) Edges() int {
	total := 0
	for _, tos := range g.edges {
		total += len(tos)
	}
	return total
}

// HasCycle reports whether the dependency graph contains a cycle.
func (g *DependencyGraph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[Channel]int{}
	var visit func(c Channel) bool
	visit = func(c Channel) bool {
		color[c] = gray
		for to := range g.edges[c] {
			switch color[to] {
			case gray:
				return true
			case white:
				if visit(to) {
					return true
				}
			}
		}
		color[c] = black
		return false
	}
	for c := range g.edges {
		if color[c] == white {
			if visit(c) {
				return true
			}
		}
	}
	return false
}
