package polygon_test

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/nodeset"
	"repro/internal/polygon"
)

func ExampleConcaveRowSections() {
	m := grid.New(8, 8)
	s := nodeset.FromCoords(m, grid.XY(1, 3), grid.XY(5, 3))
	for _, sec := range polygon.ConcaveRowSections(s) {
		fmt.Printf("row %d gap: columns %d..%d\n", sec.Line, sec.Lo, sec.Hi)
	}
	// Output:
	// row 3 gap: columns 2..4
}
