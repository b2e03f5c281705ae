package safety

import (
	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// Region classifies a point against one unsafe-area estimate (Fig. 1(b)):
// Q_z(v) is divided by the ray from v through the far corner of E_z(v);
// the side holding the destination is the critical region (the routing
// hugs it), the other side is the forbidden region (entering it forces a
// detour around the wrong flank of the blocking area).
type Region int

// Region values. Points outside the owner's forwarding zone are neutral.
const (
	RegionCritical Region = iota + 1
	RegionForbidden
	RegionNeutral
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionCritical:
		return "critical"
	case RegionForbidden:
		return "forbidden"
	case RegionNeutral:
		return "neutral"
	default:
		return "region(?)"
	}
}

// ShapeAt is one unsafe-area estimate visible from a routing decision
// point: the owning unsafe node, the zone type, the rectangle, and the
// dividing-ray far corner.
type ShapeAt struct {
	Owner topo.NodeID
	Zone  geom.ZoneType
	Rect  geom.Rect
	Far   geom.Point
}

// AppendNearbyShapes appends to dst every unsafe-area estimate visible
// at u for a packet destined to d: estimates held by u itself and by its
// unsafe neighbors, for the zone each holder would use toward d. This
// models the paper's "u can collect an unsafe area estimation from its
// unsafe neighbor v". The routing hot path calls it once per visited
// node with a reused buffer, keeping the per-hop collection
// allocation-free.
func (m *Model) AppendNearbyShapes(dst []ShapeAt, u topo.NodeID, d geom.Point) []ShapeAt {
	consider := func(v topo.NodeID) {
		z := geom.ZoneTypeOf(m.Net.Pos(v), d)
		if m.Safe(v, z) {
			return
		}
		r, ok := m.Shape(v, z)
		if !ok {
			return
		}
		far, _ := m.FarCorner(v, z)
		dst = append(dst, ShapeAt{Owner: v, Zone: z, Rect: r, Far: far})
	}
	consider(u)
	for _, v := range m.Net.Neighbors(u) {
		consider(v)
	}
	return dst
}

// Classify classifies p against the collected estimate s using its
// cached rectangle and far corner, without re-deriving the shape.
func (m *Model) Classify(s ShapeAt, d, p geom.Point) Region {
	pv := m.Net.Pos(s.Owner)
	if !geom.InForwardingZone(pv, s.Zone, p) {
		return RegionNeutral
	}
	sideD := geom.SideOfRay(pv, s.Far, d)
	sideP := geom.SideOfRay(pv, s.Far, p)
	if sideP == geom.Collinear || sideD == geom.Collinear || sideP == sideD {
		return RegionCritical
	}
	return RegionForbidden
}

// AvoidsForbidden reports whether candidate position p avoids the
// forbidden region of every visible estimate whose critical region holds
// the destination — the superseding "either-hand" preference of
// Algorithm 3 step 3. It runs on the cached shape geometry (Classify),
// so the per-candidate hot path touches no shape reconstruction.
func (m *Model) AvoidsForbidden(shapes []ShapeAt, d, p geom.Point) bool {
	for _, s := range shapes {
		if m.Classify(s, d, d) != RegionCritical {
			continue
		}
		if m.Classify(s, d, p) == RegionForbidden {
			return false
		}
	}
	return true
}

// ConfinementBox returns the union of the four E-areas visible at u
// (inflated by one radio range), the box that confines the cautious
// perimeter phase when the source or destination tuple is (0,0,0,0)
// (contribution (c)). ok is false when u holds no estimates at all.
// Served from the per-node cache maintained by finalizeShapes.
func (m *Model) ConfinementBox(u topo.NodeID) (geom.Rect, bool) {
	if !m.confOK[u] {
		return geom.Rect{}, false
	}
	return m.conf[u], true
}
