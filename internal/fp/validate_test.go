package fp

import (
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/grid"
	"repro/internal/kernel"
	"repro/internal/nodeset"
)

func fixture(t *testing.T) (*block.Result, *Result) {
	t.Helper()
	m := grid.New(12, 12)
	faults := nodeset.FromCoords(m,
		grid.XY(2, 2), grid.XY(2, 3), grid.XY(3, 2), grid.XY(4, 2), grid.XY(4, 3))
	b := block.Build(m, faults)
	r := Build(b)
	if err := r.Validate(b); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return b, r
}

func TestValidateCatchesFaultEscape(t *testing.T) {
	b, r := fixture(t)
	r.Disabled.Remove(grid.XY(2, 2)) // drop a fault from the disabled set
	if err := r.Validate(b); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("missing-fault corruption not caught: %v", err)
	}
}

func TestValidateCatchesLeakOutsideBlocks(t *testing.T) {
	b, r := fixture(t)
	r.Disabled.Add(grid.XY(10, 10))
	r.Polygons = kernel.Regions(r.Disabled)
	if err := r.Validate(b); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("leak not caught: %v", err)
	}
}

func TestValidateCatchesOverlappingPolygons(t *testing.T) {
	b, r := fixture(t)
	r.Polygons = append(r.Polygons, r.Polygons[0])
	if err := r.Validate(b); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlap not caught: %v", err)
	}
}

func TestValidateCatchesNonConvexPolygon(t *testing.T) {
	b, r := fixture(t)
	// Replace the polygon partition with one non-convex region: remove the
	// U cavity from the polygon while keeping it disabled.
	bad := r.Polygons[0].Clone()
	bad.Remove(grid.XY(3, 3))
	cav := nodeset.FromCoords(r.Mesh) // empty; cavity now uncovered
	_ = cav
	r.Polygons = []*nodeset.Set{bad}
	err := r.Validate(b)
	if err == nil {
		t.Fatal("corruption not caught")
	}
	if !strings.Contains(err.Error(), "convex") && !strings.Contains(err.Error(), "partition") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestValidateCatchesPartitionGap(t *testing.T) {
	b, r := fixture(t)
	r.Polygons = nil
	if err := r.Validate(b); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Fatalf("gap not caught: %v", err)
	}
}
