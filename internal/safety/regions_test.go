package safety

import (
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// chainModel: type-1 unsafe chain (0,0)->(5,5)->(10,10), E1(0) = [0:10,0:10],
// dividing ray from (0,0) through (10,10).
func chainModel(t *testing.T) *Model {
	t.Helper()
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(10, 10)}
	net := buildNet(t, pts, 8)
	return Build(net, WithEdgeRule(pinSet{}))
}

func TestClassifyPoint(t *testing.T) {
	m := chainModel(t)
	d := geom.Pt(20, 2) // below the diagonal: CW side
	tests := []struct {
		name string
		p    geom.Point
		want Region
	}{
		{name: "same side as dest", p: geom.Pt(9, 1), want: RegionCritical},
		{name: "opposite side", p: geom.Pt(2, 9), want: RegionForbidden},
		{name: "on the ray", p: geom.Pt(3, 3), want: RegionCritical},
		{name: "outside zone", p: geom.Pt(-5, 5), want: RegionNeutral},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.ClassifyPoint(0, geom.Zone1, d, tt.p); got != tt.want {
				t.Errorf("ClassifyPoint(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
	// Safe/no-shape owner is neutral everywhere.
	pts2 := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)}
	net2 := buildNet(t, pts2, 8)
	m2 := Build(net2, WithEdgeRule(pinSet{0: true, 1: true}))
	if got := m2.ClassifyPoint(0, geom.Zone1, d, geom.Pt(1, 1)); got != RegionNeutral {
		t.Errorf("safe owner classification = %v, want neutral", got)
	}
}

func TestRegionString(t *testing.T) {
	if RegionCritical.String() != "critical" || RegionForbidden.String() != "forbidden" ||
		RegionNeutral.String() != "neutral" || Region(9).String() != "region(?)" {
		t.Error("Region.String labels wrong")
	}
}

func TestNearbyShapes(t *testing.T) {
	m := chainModel(t)
	d := geom.Pt(50, 50) // northeast: zone 1 for every chain node
	shapes := m.NearbyShapes(0, d)
	if len(shapes) == 0 {
		t.Fatal("no shapes visible at the chain root")
	}
	foundSelf := false
	for _, s := range shapes {
		if s.Owner == 0 && s.Zone == geom.Zone1 {
			foundSelf = true
			if s.Rect != geom.FromCorners(geom.Pt(0, 0), geom.Pt(10, 10)) {
				t.Errorf("self shape = %v", s.Rect)
			}
			if s.Far != geom.Pt(10, 10) {
				t.Errorf("self far corner = %v", s.Far)
			}
		}
	}
	if !foundSelf {
		t.Error("self estimate missing from NearbyShapes")
	}
}

func TestAvoidsForbidden(t *testing.T) {
	m := chainModel(t)
	d := geom.Pt(20, 2)
	shapes := m.NearbyShapes(0, d)
	if len(shapes) == 0 {
		t.Fatal("no shapes")
	}
	if !m.AvoidsForbidden(shapes, d, geom.Pt(9, 1)) {
		t.Error("critical-side candidate should pass")
	}
	if m.AvoidsForbidden(shapes, d, geom.Pt(2, 9)) {
		t.Error("forbidden-side candidate should fail")
	}
	// With the destination NOT in the critical region the filter is
	// disarmed for that shape. Here d2 itself is inside the forbidden
	// check's zone but classified critical by definition (d side), so
	// craft d2 outside the zone instead: neutral disarms the filter.
	d2 := geom.Pt(-10, -10)
	if !m.AvoidsForbidden(shapes, d2, geom.Pt(2, 9)) {
		t.Error("filter should disarm when destination is not critical")
	}
}

func TestConfinementBox(t *testing.T) {
	m := chainModel(t)
	box, ok := m.ConfinementBox(0)
	if !ok {
		t.Fatal("chain root should have a confinement box")
	}
	// Must cover the whole unsafe chain inflated by the radius.
	if !box.Contains(geom.Pt(10, 10)) || !box.Contains(geom.Pt(0, 0)) {
		t.Errorf("box %v does not cover the chain", box)
	}
	if box.Contains(geom.Pt(100, 100)) {
		t.Errorf("box %v implausibly large", box)
	}

	// A fully safe network yields no box.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)}
	net := buildNet(t, pts, 8)
	m2 := Build(net, WithEdgeRule(pinSet{0: true, 1: true}))
	if _, ok := m2.ConfinementBox(0); ok {
		t.Error("safe network should have no confinement box")
	}
}

// ClassifyPoint classifies p against the estimate held by unsafe node v
// for zone z, given destination d. Collinear points (on the dividing ray)
// count as critical: the ray itself leads to the far corner, where the
// area ends.
func (m *Model) ClassifyPoint(v topo.NodeID, z geom.ZoneType, d, p geom.Point) Region {
	far, ok := m.FarCorner(v, z)
	if !ok {
		return RegionNeutral
	}
	pv := m.Net.Pos(v)
	if !geom.InForwardingZone(pv, z, p) {
		return RegionNeutral
	}
	sideD := geom.SideOfRay(pv, far, d)
	sideP := geom.SideOfRay(pv, far, p)
	if sideP == geom.Collinear || sideD == geom.Collinear || sideP == sideD {
		return RegionCritical
	}
	return RegionForbidden
}

// NearbyShapes collects every unsafe-area estimate visible at u for a
// packet destined to d: estimates held by u itself and by its unsafe
// neighbors, for the zone each holder would use toward d. This models the
// paper's "u can collect an unsafe area estimation from its unsafe
// neighbor v".
func (m *Model) NearbyShapes(u topo.NodeID, d geom.Point) []ShapeAt {
	return m.AppendNearbyShapes(nil, u, d)
}
