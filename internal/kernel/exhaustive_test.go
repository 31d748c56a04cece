package kernel_test

import (
	"flag"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine3"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/kernel"
)

// This file checks the engine against every fault set of a few small
// meshes (the small-scope hypothesis: most engine bugs show on some small
// fault set, and a small mesh's fault sets can all be visited). A
// reflected Gray code orders the 2ⁿ fault sets so that consecutive ones
// differ in one node, so one engine walks them all with single-event
// Apply calls: every add and every clear of every reachable state is
// exercised. After each step the snapshot is compared with a from-scratch
// construction and the engine's indexes are checked; every 64th state is
// also built in bulk on a fresh engine and compared.

// exhaustiveLarge widens the walk to 20 cells in 2-D and 18 in 3-D
// (`make exhaustive-check`); the default shapes keep tier-1 fast.
var exhaustiveLarge = flag.Bool("exhaustive-large", false, "walk the 5x4 and 3x3x2 meshes instead of the tier-1 shapes")

// bulkEvery is the stride of the states also built in bulk.
const bulkEvery = 64

// grayWalk visits every fault set of the mesh in Gray-code order, one
// Apply per step, checking each snapshot with check (check2D or check3D,
// the from-scratch comparisons of bulk_test.go).
func grayWalk[C any, T kernel.Topology[C]](t *testing.T, mesh T, newEngine func() *kernel.Engine[C, T],
	check func(*testing.T, *kernel.Snapshot[C, T])) {
	t.Helper()
	e := newEngine()
	faults := kernel.NewSet[C](mesh)
	events := make([]kernel.Event[C], 1)
	for step := 1; step < 1<<mesh.Size(); step++ {
		node := mesh.CoordAt(bits.TrailingZeros(uint(step)))
		events[0] = kernel.Event[C]{Op: kernel.Add, Node: node}
		if faults.Has(node) {
			events[0].Op = kernel.Clear
		}
		kernel.Replay(faults, events...)
		_, snap, err := e.Apply(events)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Faults().Equal(faults) {
			t.Fatalf("state %d (%v after %v): fault set diverged", step, faults, events[0])
		}
		check(t, snap)
		if err := e.CheckOwners(); err != nil {
			t.Fatalf("state %d (%v): %v", step, faults, err)
		}
		if step%bulkEvery == 0 {
			if err := sameState(bulkBuild(t, newEngine(), faults), snap); err != nil {
				t.Fatalf("state %d (%v): bulk build: %v", step, faults, err)
			}
		}
	}
}

// bulkBuild applies every fault of faults to an empty engine as one batch
// of arrivals, which takes the bulk path.
func bulkBuild[C any, T kernel.Topology[C]](t *testing.T, e *kernel.Engine[C, T], faults *kernel.Set[C, T]) *kernel.Snapshot[C, T] {
	t.Helper()
	var events []kernel.Event[C]
	faults.Each(func(c C) { events = append(events, kernel.Event[C]{Op: kernel.Add, Node: c}) })
	_, snap, err := e.Apply(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CheckOwners(); err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameState compares two snapshots' states (not their versions).
func sameState[C any, T kernel.Topology[C]](got, want *kernel.Snapshot[C, T]) error {
	if !got.Faults().Equal(want.Faults()) {
		return fmt.Errorf("fault sets differ")
	}
	if err := sameSets("component", got.Components(), want.Components()); err != nil {
		return err
	}
	if err := sameSets("polygon", got.Polygons(), want.Polygons()); err != nil {
		return err
	}
	if !got.Disabled().Equal(want.Disabled()) {
		return fmt.Errorf("disabled sets differ")
	}
	if !got.Unsafe().Equal(want.Unsafe()) {
		return fmt.Errorf("unsafe sets differ")
	}
	return nil
}

// sameSets requires two set lists to be equal element by element.
func sameSets[C any, T kernel.Topology[C]](what string, got, want []*kernel.Set[C, T]) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %ss, want %d", len(got), what, len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("%s %d differs", what, i)
		}
	}
	return nil
}

func TestExhaustive2D(t *testing.T) {
	meshes := []grid.Mesh{grid.New(4, 4), grid.New(2, 8)}
	if *exhaustiveLarge {
		meshes = []grid.Mesh{grid.New(5, 4)}
	}
	for _, m := range meshes {
		t.Run(m.String(), func(t *testing.T) {
			grayWalk(t, m, func() *engine.Engine {
				e, err := engine.New(m)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, check2D)
		})
	}
}

func TestExhaustive3D(t *testing.T) {
	meshes := []grid3.Mesh{grid3.New(2, 2, 3), grid3.New(3, 2, 2)}
	if *exhaustiveLarge {
		meshes = []grid3.Mesh{grid3.New(3, 3, 2)}
	}
	for _, m := range meshes {
		t.Run(m.String(), func(t *testing.T) {
			grayWalk(t, m, func() *engine3.Engine {
				e, err := engine3.New(m)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}, check3D)
		})
	}
}
