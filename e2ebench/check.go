package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/grid3"
	"repro/internal/mfp3d"
	"repro/internal/nodeset"
	"repro/internal/nodeset3"
	"repro/internal/routing"
	"repro/internal/status"
)

// Sample sizes of the end-of-run check.
const (
	checkStatus = 200
	checkRoutes = 40
)

type wireXYZ struct {
	X int  `json:"x"`
	Y int  `json:"y"`
	Z *int `json:"z,omitempty"`
}

type wirePolygons struct {
	Version  uint64 `json:"version"`
	Polygons []struct {
		Faults  []wireXYZ `json:"faults"`
		Polygon []wireXYZ `json:"polygon"`
	} `json:"polygons"`
}

// oracle is the from-scratch construction for one fault set: core.Construct
// in 2-D, mfp3d.Build in 3-D. It shares no state with mfpd's engines.
type oracle struct {
	wl       *workload
	faulty   map[[3]int]bool
	polygons []string // canonical polygon keys, sorted
	comps    []string // canonical component keys, sorted
	class    func(c [3]int) string
	planner  *routing.Planner // 2-D only
}

func newOracle(wl *workload, faults [][3]int) *oracle {
	o := &oracle{wl: wl, faulty: make(map[[3]int]bool, len(faults))}
	for _, c := range faults {
		o.faulty[c] = true
	}
	if wl.is3D() {
		m := grid3.New(wl.W, wl.H, wl.D)
		set := nodeset3.New(m)
		for _, c := range faults {
			set.Add(grid3.XYZ(c[0], c[1], c[2]))
		}
		res := mfp3d.Build(m, set)
		for i, p := range res.Polytopes {
			o.polygons = append(o.polygons, key3(p))
			o.comps = append(o.comps, key3(res.Components[i]))
		}
		o.class = func(c [3]int) string {
			n := grid3.XYZ(c[0], c[1], c[2])
			return status.Classify(set.Has(n), res.DisabledPolytope.Has(n), res.DisabledCuboid.Has(n)).String()
		}
	} else {
		m := grid.New(wl.W, wl.H)
		set := nodeset.New(m)
		for _, c := range faults {
			set.Add(grid.XY(c[0], c[1]))
		}
		ref := core.Construct(m, set, core.Options{Workers: 1})
		for i, p := range ref.Minimum.Polygons {
			o.polygons = append(o.polygons, key2(p))
			var comp []string
			ref.Minimum.Components[i].Nodes.Each(func(c grid.Coord) {
				if set.Has(c) {
					comp = append(comp, strconv.Itoa(c.X)+","+strconv.Itoa(c.Y))
				}
			})
			o.comps = append(o.comps, strings.Join(comp, " "))
		}
		o.class = func(c [3]int) string { return ref.Class(core.MFP, grid.XY(c[0], c[1])).String() }
		o.planner = routing.NewPlannerForBlocked(m, ref.Minimum.Disabled)
	}
	sort.Strings(o.polygons)
	sort.Strings(o.comps)
	return o
}

func key2(s *nodeset.Set) string {
	var b strings.Builder
	s.Each(func(c grid.Coord) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(c.X) + "," + strconv.Itoa(c.Y))
	})
	return b.String()
}

func key3(s *nodeset3.Set) string {
	var b strings.Builder
	s.Each(func(c grid3.Coord) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(c.X) + "," + strconv.Itoa(c.Y) + "," + strconv.Itoa(c.Z))
	})
	return b.String()
}

// wireKey canonicalizes a node list from a reply the way key2/key3 do
// (mfpd lists nodes in row-major order, as Set.Each visits them).
func wireKey(nodes []wireXYZ, is3D bool) string {
	parts := make([]string, len(nodes))
	for i, n := range nodes {
		parts[i] = strconv.Itoa(n.X) + "," + strconv.Itoa(n.Y)
		if is3D {
			z := 0
			if n.Z != nil {
				z = *n.Z
			}
			parts[i] += "," + strconv.Itoa(z)
		}
	}
	return strings.Join(parts, " ")
}

// finalCheck compares mfpd's quiescent state with the oracle: the whole
// polygons reply, the fault count in stats, a seeded sample of status
// answers and (2-D) of single and batched routes. It returns how many
// requests it sent and the mismatches it found.
func finalCheck(ctx context.Context, c *conn, base string, wl *workload, faults [][3]int, seed int64) (attempted int, mismatches []string, err error) {
	o := newOracle(wl, faults)
	g := &generator{wl: wl}
	fail := func(format string, args ...any) { mismatches = append(mismatches, fmt.Sprintf(format, args...)) }

	attempted++
	st, body, err := do(ctx, c.client, base, "GET", "/v1/meshes/"+wl.Name+"/polygons", nil)
	if err != nil {
		return attempted, nil, err
	}
	var rep wirePolygons
	if st != http.StatusOK {
		fail("polygons: HTTP %d", st)
	} else if err := json.Unmarshal(body, &rep); err != nil {
		fail("polygons: %v", err)
	} else {
		var polys, comps []string
		for _, p := range rep.Polygons {
			polys = append(polys, wireKey(p.Polygon, wl.is3D()))
			comps = append(comps, wireKey(p.Faults, wl.is3D()))
		}
		sort.Strings(polys)
		sort.Strings(comps)
		if !equalStrings(polys, o.polygons) {
			fail("polygons: %d polygons differ from the oracle's %d", len(polys), len(o.polygons))
		}
		if !equalStrings(comps, o.comps) {
			fail("polygons: component fault lists differ from the oracle's")
		}
	}

	attempted++
	st, body, err = do(ctx, c.client, base, "GET", "/v1/meshes/"+wl.Name+"/stats", nil)
	if err != nil {
		return attempted, mismatches, err
	}
	var stats struct {
		Faults int `json:"faults"`
	}
	if st != http.StatusOK || json.Unmarshal(body, &stats) != nil || stats.Faults != len(faults) {
		fail("stats: HTTP %d, faults %d, want %d", st, stats.Faults, len(faults))
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	g.rng = rng
	for i := 0; i < checkStatus; i++ {
		n := [3]int{rng.Intn(wl.W), rng.Intn(wl.H), 0}
		if wl.is3D() {
			n[2] = rng.Intn(wl.D)
		}
		if i%2 == 0 && len(faults) > 0 { // half the sample next to a fault
			f := faults[rng.Intn(len(faults))]
			for a := 0; a < 3; a++ {
				lim := [3]int{wl.W, wl.H, wl.D}[a]
				if lim > 0 {
					n[a] = min(max(f[a]+rng.Intn(5)-2, 0), lim-1)
				}
			}
		}
		attempted++
		st, body, err := do(ctx, c.client, base, "GET", statusPath(g, n), nil)
		if err != nil {
			return attempted, mismatches, err
		}
		var s struct {
			Class string `json:"class"`
		}
		if st != http.StatusOK || json.Unmarshal(body, &s) != nil || s.Class != o.class(n) {
			fail("status %v: HTTP %d class %q, oracle %q", n, st, s.Class, o.class(n))
		}
	}
	if o.planner == nil {
		return attempted, mismatches, nil
	}

	pairs := make([][4]int, checkRoutes)
	for i := range pairs {
		pairs[i] = g.randomPair()
	}
	for _, p := range pairs {
		attempted++
		var b strings.Builder
		fmt.Fprintf(&b, `{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, p[0], p[1], p[2], p[3])
		st, body, err := do(ctx, c.client, base, "POST", "/v1/meshes/"+wl.Name+"/route", []byte(b.String()))
		if err != nil {
			return attempted, mismatches, err
		}
		route, rerr := o.planner.Route(grid.XY(p[0], p[1]), grid.XY(p[2], p[3]))
		wantSt := http.StatusOK
		switch {
		case errors.Is(rerr, routing.ErrBlockedEndpoint):
			wantSt = http.StatusConflict
		case errors.Is(rerr, routing.ErrBorderRegion), errors.Is(rerr, routing.ErrHopBudget):
			wantSt = http.StatusUnprocessableEntity
		case rerr != nil:
			wantSt = http.StatusBadRequest
		}
		if st != wantSt {
			fail("route %v: HTTP %d, oracle %d", p, st, wantSt)
			continue
		}
		if rerr != nil {
			continue
		}
		var r struct {
			Length       int `json:"length"`
			AbnormalHops int `json:"abnormal_hops"`
			Path         []wireXYZ
		}
		if err := json.Unmarshal(body, &r); err != nil {
			fail("route %v: %v", p, err)
			continue
		}
		want := route.Path()
		same := r.Length == route.Length() && r.AbnormalHops == route.AbnormalHops && len(r.Path) == len(want)
		for i := 0; same && i < len(want); i++ {
			same = r.Path[i].X == want[i].X && r.Path[i].Y == want[i].Y
		}
		if !same {
			fail("route %v: length %d abnormal %d differs from the oracle's %d, %d", p, r.Length, r.AbnormalHops, route.Length(), route.AbnormalHops)
		}
	}

	attempted++
	var b strings.Builder
	b.WriteString(`{"pairs":[`)
	queries := make([]routing.Query, len(pairs))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`, p[0], p[1], p[2], p[3])
		queries[i] = routing.Query{Src: grid.XY(p[0], p[1]), Dst: grid.XY(p[2], p[3])}
	}
	b.WriteString(`]}`)
	st, body, err = do(ctx, c.client, base, "POST", "/v1/meshes/"+wl.Name+"/route", []byte(b.String()))
	if err != nil {
		return attempted, mismatches, err
	}
	var batch struct {
		Routes []struct {
			Length       int    `json:"length"`
			AbnormalHops int    `json:"abnormal_hops"`
			Error        string `json:"error"`
		} `json:"routes"`
	}
	if st != http.StatusOK || json.Unmarshal(body, &batch) != nil || len(batch.Routes) != len(queries) {
		fail("route batch: HTTP %d with %d results", st, len(batch.Routes))
		return attempted, mismatches, nil
	}
	for i, res := range o.planner.RouteAll(queries, 1) {
		got := batch.Routes[i]
		if res.Err != nil {
			if got.Error != res.Err.Error() {
				fail("route batch %d: error %q, oracle %q", i, got.Error, res.Err)
			}
			continue
		}
		if got.Error != "" || got.Length != res.Route.Length() || got.AbnormalHops != res.Route.AbnormalHops {
			fail("route batch %d: length %d abnormal %d error %q, oracle %d %d", i, got.Length, got.AbnormalHops, got.Error, res.Route.Length(), res.Route.AbnormalHops)
		}
	}
	return attempted, mismatches, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
