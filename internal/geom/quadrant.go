package geom

import "fmt"

// ZoneType identifies one of the four request-zone / forwarding-zone types
// of the paper (§3). Type i corresponds to quadrant i of the plane around
// the current node: 1 = Northeast, 2 = Northwest, 3 = Southwest,
// 4 = Southeast.
type ZoneType int

// Zone types are 1-based to match the paper's Z1..Z4 / Q1..Q4 notation.
const (
	Zone1 ZoneType = iota + 1 // quadrant I, Northeast
	Zone2                     // quadrant II, Northwest
	Zone3                     // quadrant III, Southwest
	Zone4                     // quadrant IV, Southeast
)

// NumZones is the number of zone types.
const NumZones = 4

// AllZones lists the four zone types in order.
var AllZones = [NumZones]ZoneType{Zone1, Zone2, Zone3, Zone4}

// String implements fmt.Stringer.
func (z ZoneType) String() string {
	switch z {
	case Zone1:
		return "Z1(NE)"
	case Zone2:
		return "Z2(NW)"
	case Zone3:
		return "Z3(SW)"
	case Zone4:
		return "Z4(SE)"
	default:
		return fmt.Sprintf("Z?(%d)", int(z))
	}
}

// ZoneTypeOf returns the type of the request zone of node u with respect to
// destination d, i.e. the quadrant of d relative to u. Boundary convention:
// dx >= 0 counts as East, dy >= 0 counts as North, so a destination due
// east is type 1 and due west is type 3. ZoneTypeOf(u, u) returns Zone1.
func ZoneTypeOf(u, d Point) ZoneType {
	dx := d.X - u.X
	dy := d.Y - u.Y
	switch {
	case dx >= 0 && dy >= 0:
		return Zone1
	case dx < 0 && dy >= 0:
		return Zone2
	case dx < 0 && dy < 0:
		return Zone3
	default:
		return Zone4
	}
}

// InForwardingZone reports whether p lies in the type-z forwarding zone
// Q_z(u): the closed quadrant of type z anchored at u, excluding u itself.
// The boundary convention matches ZoneTypeOf, so every p != u lies in
// exactly one forwarding zone of u.
func InForwardingZone(u Point, z ZoneType, p Point) bool {
	if p == u {
		return false
	}
	return ZoneTypeOf(u, p) == z
}

// RequestZone returns the paper's request zone Z(u, d) = [xu:xd, yu:yd],
// the axis-aligned rectangle with u and d at opposite corners (LAR scheme 1).
func RequestZone(u, d Point) Rect { return FromCorners(u, d) }

// InRequestZone reports whether p lies in Z(u, d), excluding u itself.
// Any such p weakly advances toward d in both coordinates, which makes the
// greedy phase of LGF loop-free.
func InRequestZone(u, d, p Point) bool {
	if p == u {
		return false
	}
	return RequestZone(u, d).Contains(p)
}
