// Package grid3 models 3-D meshes and tori: the topology the paper names
// as future work ("extending the proposed method to higher dimension
// meshes"). It mirrors the 2-D grid package: coordinates, the 6-neighbour
// link structure, the 26-adjacency used for fault components, and
// axis-aligned boxes.
package grid3

import (
	"encoding/json"
	"fmt"
)

// Coord is the address of a node in a 3-D mesh.
type Coord struct {
	X, Y, Z int
}

// XYZ is shorthand for Coord{X: x, Y: y, Z: z}.
func XYZ(x, y, z int) Coord { return Coord{X: x, Y: y, Z: z} }

// String renders the coordinate as "(x,y,z)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// MarshalJSON encodes the coordinate as {"x":…,"y":…,"z":…}, the wire
// shape the 3-D fault-event stream inlines (see kernel.Event).
func (c Coord) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"x":%d,"y":%d,"z":%d}`, c.X, c.Y, c.Z)), nil
}

// UnmarshalJSON decodes {"x":…,"y":…,"z":…}, requiring all three fields so
// a 2-D event posted to a 3-D mesh is rejected instead of silently decoding
// with z = 0. Unknown fields (such as an event's "op") are ignored.
func (c *Coord) UnmarshalJSON(data []byte) error {
	var w struct {
		X *int `json:"x"`
		Y *int `json:"y"`
		Z *int `json:"z"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("grid3: bad coordinate: %w", err)
	}
	if w.X == nil || w.Y == nil || w.Z == nil {
		return fmt.Errorf("grid3: coordinate %s misses x, y or z", data)
	}
	*c = Coord{X: *w.X, Y: *w.Y, Z: *w.Z}
	return nil
}

// SetWire assembles the coordinate from already-scanned wire fields — the
// hook kernel.DecodeEvents' canonical fast path uses in place of
// UnmarshalJSON. The dimensionality check matches the JSON codec: a 3-D
// coordinate requires a z field.
func (c *Coord) SetWire(x, y, z int, hasZ bool) error {
	if !hasZ {
		return fmt.Errorf("grid3: coordinate misses z")
	}
	*c = Coord{X: x, Y: y, Z: z}
	return nil
}

// Wire returns the coordinate's wire fields, the encode-side mirror of
// SetWire that the kernel's canonical appenders use in place of
// MarshalJSON.
func (c Coord) Wire() (x, y, z int, hasZ bool) { return c.X, c.Y, c.Z, true }

// Add returns c translated by d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y, c.Z + d.Z} }

// Mesh describes a W×H×D 3-D mesh, optionally with wraparound links.
type Mesh struct {
	W, H, D int
	Torus   bool
}

// New returns a W×H×D mesh. It panics on non-positive dimensions.
func New(w, h, d int) Mesh {
	if w <= 0 || h <= 0 || d <= 0 {
		panic(fmt.Sprintf("grid3: invalid mesh dimensions %dx%dx%d", w, h, d))
	}
	return Mesh{W: w, H: h, D: d}
}

// NewTorus returns a W×H×D torus.
func NewTorus(w, h, d int) Mesh {
	m := New(w, h, d)
	m.Torus = true
	return m
}

// Size returns the number of nodes.
func (m Mesh) Size() int { return m.W * m.H * m.D }

// Contains reports whether c lies inside the mesh.
func (m Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H && c.Z >= 0 && c.Z < m.D
}

// Index maps an in-mesh coordinate to a dense index.
func (m Mesh) Index(c Coord) int {
	if !m.Contains(c) {
		panic(fmt.Sprintf("grid3: coordinate %v outside %dx%dx%d mesh", c, m.W, m.H, m.D))
	}
	return (c.Z*m.H+c.Y)*m.W + c.X
}

// CoordAt is the inverse of Index.
func (m Mesh) CoordAt(i int) Coord {
	if i < 0 || i >= m.Size() {
		panic(fmt.Sprintf("grid3: index %d outside mesh", i))
	}
	x := i % m.W
	i /= m.W
	return Coord{X: x, Y: i % m.H, Z: i / m.H}
}

// Wrap normalizes c onto the mesh; ok is false when a non-torus coordinate
// is outside.
func (m Mesh) Wrap(c Coord) (Coord, bool) {
	if !m.Torus {
		return c, m.Contains(c)
	}
	c.X = mod(c.X, m.W)
	c.Y = mod(c.Y, m.H)
	c.Z = mod(c.Z, m.D)
	return c, true
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}

// linkOffsets are the 6 mesh link directions.
var linkOffsets = [6]Coord{
	{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1},
}

// Neighbors6 appends the link neighbours of c to buf.
func (m Mesh) Neighbors6(c Coord, buf []Coord) []Coord {
	for _, d := range linkOffsets {
		if n, ok := m.Wrap(c.Add(d)); ok {
			buf = append(buf, n)
		}
	}
	return buf
}

// Neighbors26 appends the adjacent nodes of c (the 26-neighbourhood, the
// 3-D analogue of Definition 2) to buf.
func (m Mesh) Neighbors26(c Coord, buf []Coord) []Coord {
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				if n, ok := m.Wrap(Coord{c.X + dx, c.Y + dy, c.Z + dz}); ok {
					buf = append(buf, n)
				}
			}
		}
	}
	return buf
}

// Links appends the link neighbours of c to buf; it is Neighbors6 under
// the dimension-generic name of the kernel.Topology interface.
func (m Mesh) Links(c Coord, buf []Coord) []Coord { return m.Neighbors6(c, buf) }

// Adjacent appends the merge-process neighbours of c (the 3-D analogue of
// Definition 2) to buf; it is Neighbors26 under the dimension-generic name
// of the kernel.Topology interface.
func (m Mesh) Adjacent(c Coord, buf []Coord) []Coord { return m.Neighbors26(c, buf) }

// Axes returns the number of axes of the topology (3).
func (m Mesh) Axes() int { return 3 }

// AxisLen returns the node count along the given axis (0 = X, 1 = Y,
// 2 = Z).
func (m Mesh) AxisLen(axis int) int {
	switch axis {
	case 0:
		return m.W
	case 1:
		return m.H
	}
	return m.D
}

// AxisPos returns c's position along the given axis.
func (m Mesh) AxisPos(axis int, c Coord) int {
	switch axis {
	case 0:
		return c.X
	case 1:
		return c.Y
	}
	return c.Z
}

// AtAxes builds the coordinate with the given per-axis positions.
func (m Mesh) AtAxes(vals []int) Coord { return Coord{X: vals[0], Y: vals[1], Z: vals[2]} }

// AxisStride returns the dense-index stride of the given axis: Index is
// (z*H + y)*W + x, so X is contiguous, Y strides by a row and Z by a
// full plane.
func (m Mesh) AxisStride(axis int) int {
	switch axis {
	case 0:
		return 1
	case 1:
		return m.W
	}
	return m.W * m.H
}

// Wraps reports whether the mesh has wraparound links.
func (m Mesh) Wraps() bool { return m.Torus }

// Dist returns the routing (Manhattan) distance between two nodes.
func (m Mesh) Dist(a, b Coord) int {
	dx, dy, dz := abs(a.X-b.X), abs(a.Y-b.Y), abs(a.Z-b.Z)
	if m.Torus {
		if w := m.W - dx; w < dx {
			dx = w
		}
		if h := m.H - dy; h < dy {
			dy = h
		}
		if d := m.D - dz; d < dz {
			dz = d
		}
	}
	return dx + dy + dz
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// String describes the topology.
func (m Mesh) String() string {
	kind := "mesh"
	if m.Torus {
		kind = "torus"
	}
	return fmt.Sprintf("%s %dx%dx%d", kind, m.W, m.H, m.D)
}

// Box is an axis-aligned inclusive cuboid of nodes, the 3-D faulty block
// shape.
type Box struct {
	Min, Max Coord
}

// EmptyBox returns the identity for Union.
func EmptyBox() Box {
	const big = int(^uint(0) >> 1)
	return Box{Min: Coord{big, big, big}, Max: Coord{-big - 1, -big - 1, -big - 1}}
}

// Empty reports whether the box contains no nodes.
func (b Box) Empty() bool {
	return b.Max.X < b.Min.X || b.Max.Y < b.Min.Y || b.Max.Z < b.Min.Z
}

// Volume returns the number of nodes covered.
func (b Box) Volume() int {
	if b.Empty() {
		return 0
	}
	return (b.Max.X - b.Min.X + 1) * (b.Max.Y - b.Min.Y + 1) * (b.Max.Z - b.Min.Z + 1)
}

// Contains reports whether c lies inside the box.
func (b Box) Contains(c Coord) bool {
	return c.X >= b.Min.X && c.X <= b.Max.X &&
		c.Y >= b.Min.Y && c.Y <= b.Max.Y &&
		c.Z >= b.Min.Z && c.Z <= b.Max.Z
}

// Extend returns the smallest box covering b and c.
func (b Box) Extend(c Coord) Box {
	if b.Empty() {
		return Box{Min: c, Max: c}
	}
	return Box{
		Min: Coord{min(b.Min.X, c.X), min(b.Min.Y, c.Y), min(b.Min.Z, c.Z)},
		Max: Coord{max(b.Max.X, c.X), max(b.Max.Y, c.Y), max(b.Max.Z, c.Z)},
	}
}

// Union returns the smallest box covering both boxes.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{
		Min: Coord{min(b.Min.X, o.Min.X), min(b.Min.Y, o.Min.Y), min(b.Min.Z, o.Min.Z)},
		Max: Coord{max(b.Max.X, o.Max.X), max(b.Max.Y, o.Max.Y), max(b.Max.Z, o.Max.Z)},
	}
}

// Intersect returns the nodes covered by both boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{
		Min: Coord{max(b.Min.X, o.Min.X), max(b.Min.Y, o.Min.Y), max(b.Min.Z, o.Min.Z)},
		Max: Coord{min(b.Max.X, o.Max.X), min(b.Max.Y, o.Max.Y), min(b.Max.Z, o.Max.Z)},
	}
}

// Each calls fn for every node of the box.
func (b Box) Each(fn func(Coord)) {
	for z := b.Min.Z; z <= b.Max.Z; z++ {
		for y := b.Min.Y; y <= b.Max.Y; y++ {
			for x := b.Min.X; x <= b.Max.X; x++ {
				fn(Coord{x, y, z})
			}
		}
	}
}

// String renders the box by its corners.
func (b Box) String() string {
	if b.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%v;%v]", b.Min, b.Max)
}
