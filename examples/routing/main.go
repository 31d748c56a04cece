// The routing walk of the paper's Figure 2: a WE-bound message from (1,3)
// to (6,4) meets the faulty polygon {(2,4),(3,4),(4,3)}, rounds it
// counterclockwise through row 2, and resumes e-cube routing.
//
//	go run ./examples/routing
package main

import (
	"fmt"
	"log"

	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/render"
	"repro/internal/routing"
)

func main() {
	m := grid.New(8, 8)
	polygon := nodeset.FromCoords(m, grid.XY(2, 4), grid.XY(3, 4), grid.XY(4, 3))
	planner := routing.NewPlannerForBlocked(m, polygon)

	src, dst := grid.XY(1, 3), grid.XY(6, 4)
	route, err := planner.Route(src, dst)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("extended e-cube route %v -> %v around polygon %v\n\n", src, dst, polygon)
	onPath := map[grid.Coord]bool{}
	for _, c := range route.Path() {
		onPath[c] = true
	}
	fmt.Print(render.Grid(m, func(c grid.Coord) rune {
		switch {
		case polygon.Has(c):
			return '#'
		case c == src:
			return 'S'
		case c == dst:
			return 'D'
		case onPath[c]:
			return '+'
		default:
			return '.'
		}
	}))
	fmt.Println("# faulty polygon   S source   D destination   + route")

	fmt.Printf("\nhops: %d (Manhattan distance %d), abnormal hops: %d\n",
		route.Length(), m.Dist(src, dst), route.AbnormalHops)
	for i, h := range route.Hops {
		mode := "normal"
		if h.Abnormal {
			mode = "around polygon"
		}
		fmt.Printf("  hop %d: %v -> %v  type %s (vc%d)  %s\n",
			i+1, h.From, h.To, h.Type, h.Type.VC(), mode)
	}
}
