package kernel_test

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

// A U-shaped region is not orthogonal convex; its closure fills the cavity.
func ExampleClosure() {
	m := grid.New(8, 8)
	u := nodeset.FromCoords(m,
		grid.XY(1, 1), grid.XY(1, 2),
		grid.XY(2, 1),
		grid.XY(3, 1), grid.XY(3, 2))

	fmt.Println("convex before:", kernel.IsOrthoConvex(u))
	closed, _ := kernel.Closure(u)
	fmt.Println("convex after:", kernel.IsOrthoConvex(closed))
	fmt.Println("cavity filled:", closed.Has(grid.XY(2, 2)))
	// Output:
	// convex before: false
	// convex after: true
	// cavity filled: true
}
