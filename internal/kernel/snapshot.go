package kernel

import (
	"errors"
	"fmt"

	"repro/internal/status"
)

var errNotInsideFB = errors.New("engine: MFP disabled set not inside the FB unsafe set")

// Snapshot is one immutable, internally consistent view of an engine's
// state: the fault set, the faulty components with their minimum faulty
// polygons (polytopes in 3-D), in deterministic seed order, the disabled
// union, and the topology's faulty-block unsafe set. Snapshots are cheap —
// per-component polygons are shared with the engine's cache and with every
// other snapshot that saw the same component — and safe for concurrent
// use.
//
// The returned sets are shared and must be treated as read-only; clone
// before mutating.
type Snapshot[C any, T Topology[C]] struct {
	mesh     T
	version  uint64
	faults   *Set[C, T]
	unsafe   *Set[C, T]
	comps    []*Set[C, T]
	polygons []*Set[C, T]
	disabled *Set[C, T]
}

// Mesh returns the mesh the snapshot describes.
func (s *Snapshot[C, T]) Mesh() T { return s.mesh }

// Version counts the state-changing events applied before this snapshot
// was taken; it increases monotonically and is stable across equal states.
func (s *Snapshot[C, T]) Version() uint64 { return s.version }

// Faults returns the snapshot's fault set (read-only).
func (s *Snapshot[C, T]) Faults() *Set[C, T] { return s.faults }

// Components returns the faulty components' node sets in index-order seed
// order, the same order a from-scratch component search produces
// (read-only).
func (s *Snapshot[C, T]) Components() []*Set[C, T] { return s.comps }

// Polygons returns the minimum faulty polygon (polytope) of each
// component, index-aligned with Components (read-only). Because polygons
// are cached and shared across snapshots, derived structures can reuse
// them without recomputation — routing.NewPlanner builds its detour
// regions directly from this slice instead of re-flooding the disabled
// union.
func (s *Snapshot[C, T]) Polygons() []*Set[C, T] { return s.polygons }

// Disabled returns the union of the polygons — every node excluded from
// routing under the MFP model, faults included (read-only).
func (s *Snapshot[C, T]) Disabled() *Set[C, T] { return s.disabled }

// Unsafe returns the faulty-block unsafe set: in 2-D the scheme-1 union of
// rectangular faulty blocks, in 3-D the union of component bounding
// cuboids; faults included (read-only).
func (s *Snapshot[C, T]) Unsafe() *Set[C, T] { return s.unsafe }

// Class returns the node's status under the MFP model, identical to the
// batch construction's classification for the same fault set.
func (s *Snapshot[C, T]) Class(node C) status.Class {
	return status.Classify(s.faults.Has(node), s.disabled.Has(node), s.unsafe.Has(node))
}

// DisabledNonFaulty returns the number of non-faulty nodes the MFP model
// disables — the Figure 9 metric.
func (s *Snapshot[C, T]) DisabledNonFaulty() int { return s.disabled.Len() - s.faults.Len() }

// MeanPolygonSize returns the average number of nodes per minimum faulty
// polygon — the Figure 10 metric (0 when there are no faults).
func (s *Snapshot[C, T]) MeanPolygonSize() float64 {
	if len(s.polygons) == 0 {
		return 0
	}
	total := 0
	for _, p := range s.polygons {
		total += p.Len()
	}
	return float64(total) / float64(len(s.polygons))
}

// Validate cross-checks the snapshot's invariants: every polygon is the
// orthogonal convex closure of its component (minimum, convex, covering),
// the disabled set is their union and contains every fault, and the unsafe
// set contains the disabled set (MFP ⊆ FB).
func (s *Snapshot[C, T]) Validate() error {
	if len(s.polygons) != len(s.comps) {
		return fmt.Errorf("mfp: %d polygons for %d components", len(s.polygons), len(s.comps))
	}
	covered := NewSet[C](s.mesh)
	for i, p := range s.polygons {
		comp := s.comps[i]
		if !p.ContainsAll(comp) {
			return fmt.Errorf("mfp: polygon %d misses component nodes", i)
		}
		if want, _ := Closure(comp); !p.Equal(want) {
			return fmt.Errorf("mfp: polygon %d is not the minimum polygon of its component", i)
		}
		if !IsOrthoConvex(p) {
			return fmt.Errorf("mfp: polygon %d is not orthogonal convex", i)
		}
		covered.UnionWith(p)
	}
	if !covered.Equal(s.disabled) {
		return fmt.Errorf("mfp: disabled set is not the union of the polygons")
	}
	if !s.disabled.ContainsAll(s.faults) {
		return fmt.Errorf("mfp: a fault escaped the polygons")
	}
	if !s.unsafe.ContainsAll(s.disabled) {
		return errNotInsideFB
	}
	return nil
}

// Reference is a from-scratch construction of one fault set in the shape
// Snapshot.Verify compares against. core.Reference adapts core.Construct
// and mfp3d.Reference adapts mfp3d.Build.
type Reference[C any, T Topology[C]] struct {
	Faults *Set[C, T]
	// Components and Polygons are index-aligned, in seed order.
	Components []*Set[C, T]
	Polygons   []*Set[C, T]
	Disabled   *Set[C, T]
	Unsafe     *Set[C, T]
	// Class is the construction's own classification of a node.
	Class func(C) status.Class
}

// Verify reports the first way the snapshot differs from ref, a
// from-scratch construction of the same fault set: the fault set, each
// component and its polygon in seed order, the disabled and unsafe sets,
// and every node's class. It then checks the snapshot's own invariants
// (Validate). This is the differential check of every engine test, churn
// report and stress checkpoint.
func (s *Snapshot[C, T]) Verify(ref Reference[C, T]) error {
	if !s.faults.Equal(ref.Faults) {
		return fmt.Errorf("rebuild differs: fault set")
	}
	if len(s.comps) != len(ref.Components) || len(s.polygons) != len(ref.Polygons) {
		return fmt.Errorf("rebuild differs: %d components, the rebuild has %d", len(s.comps), len(ref.Components))
	}
	for i := range s.comps {
		if !s.comps[i].Equal(ref.Components[i]) {
			return fmt.Errorf("rebuild differs: component %d", i)
		}
		if !s.polygons[i].Equal(ref.Polygons[i]) {
			return fmt.Errorf("rebuild differs: polygon %d", i)
		}
	}
	if !s.disabled.Equal(ref.Disabled) {
		return fmt.Errorf("rebuild differs: disabled set")
	}
	if !s.unsafe.Equal(ref.Unsafe) {
		return fmt.Errorf("rebuild differs: unsafe set")
	}
	for i := 0; i < s.mesh.Size(); i++ {
		node := s.mesh.CoordAt(i)
		if got, want := s.Class(node), ref.Class(node); got != want {
			return fmt.Errorf("rebuild differs: class of %v is %v, the rebuild says %v", node, got, want)
		}
	}
	return s.Validate()
}
