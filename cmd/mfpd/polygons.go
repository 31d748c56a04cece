package main

import (
	"slices"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/shard"
)

// polygonsWire is the polygons reply format,
//
//	{"version":N,"polygons":[{"faults":[C,..],"polygon":[C,..]},..]}
//
// plus a trailing newline, where a coordinate C is {"x":..,"y":..} on a 2-D
// mesh and {"x":..,"y":..,"z":..} on a 3-D one, nodes in index (row-major)
// order. The field name is "polygon" in every dimensionality, so 2-D and
// 3-D replies decode with one shape. The bytes must equal what
// encoding/json writes for the same reply shape: the golden transcript
// and a differential test against a reflection-based reference pin them.
type polygonsWire[C any, T kernel.Topology[C]] struct{}

// axisKeys open each axis' member of a coordinate object.
var axisKeys = [...]string{`{"x":`, `,"y":`, `,"z":`}

// Head opens the reply and sizes dst for all of it: every node of every
// component and polygon at its widest coordinate.
func (polygonsWire[C, T]) Head(dst []byte, v shard.View[C, T]) []byte {
	snap := v.Snapshot
	comps, polys := snap.Components(), snap.Polygons()
	nodes := 0
	for i, comp := range comps {
		nodes += comp.Len() + polys[i].Len()
	}
	size := len(`{"version":,"polygons":[]}`+"\n") + 20 +
		len(comps)*len(`{"faults":[],"polygon":[]},`) + nodes*coordBytes(snap.Mesh())
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, v.Version, 10)
	return append(dst, `,"polygons":[`...)
}

// Fragment encodes one component's faults and polygon.
func (polygonsWire[C, T]) Fragment(dst []byte, comp, poly *kernel.Set[C, T]) []byte {
	dst = append(dst, `{"faults":`...)
	dst = appendCoords(dst, comp)
	dst = append(dst, `,"polygon":`...)
	dst = appendCoords(dst, poly)
	return append(dst, '}')
}

func (polygonsWire[C, T]) Sep(dst []byte) []byte { return append(dst, ',') }

func (polygonsWire[C, T]) Tail(dst []byte) []byte { return append(dst, "]}\n"...) }

// coordBytes bounds the encoded length of one coordinate on mesh, its
// separating comma included.
func coordBytes[C any, T kernel.Topology[C]](mesh T) int {
	n := len(`},`)
	for a := 0; a < mesh.Axes(); a++ {
		n += len(axisKeys[a]) + len(strconv.Itoa(mesh.AxisLen(a)-1))
	}
	return n
}

// appendCoords appends set's nodes as a JSON array of coordinate objects
// in index order. Each dense index splits into axis positions by the
// topology's row-major contract (axis 0 contiguous, each stride the
// product of the lower axes' lengths), so no coordinate value is built.
func appendCoords[C any, T kernel.Topology[C]](dst []byte, set *kernel.Set[C, T]) []byte {
	mesh := set.Mesh()
	axes := mesh.Axes()
	var lens [len(axisKeys)]int
	for a := 0; a < axes; a++ {
		lens[a] = mesh.AxisLen(a)
	}
	dst = append(dst, '[')
	first := true
	set.EachIndex(func(i int) {
		if !first {
			dst = append(dst, ',')
		}
		first = false
		for a := 0; a < axes-1; a++ {
			dst = append(dst, axisKeys[a]...)
			dst = strconv.AppendInt(dst, int64(i%lens[a]), 10)
			i /= lens[a]
		}
		dst = append(dst, axisKeys[axes-1]...)
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '}')
	})
	return append(dst, ']')
}
