package geom

import "math"

// Orientation classifies the turn a→b→c.
type Orientation int

// Orientation values. Collinear is zero so the zero value is the degenerate
// case.
const (
	Collinear        Orientation = 0
	CounterClockwise Orientation = 1
	Clockwise        Orientation = -1
)

// orientationEps absorbs floating-point noise in cross products of
// coordinates on the order of the deployment field (hundreds of meters).
const orientationEps = 1e-9

// Orient returns the orientation of the ordered triple (a, b, c).
func Orient(a, b, c Point) Orientation {
	cross := b.Sub(a).Cross(c.Sub(a))
	switch {
	case cross > orientationEps:
		return CounterClockwise
	case cross < -orientationEps:
		return Clockwise
	default:
		return Collinear
	}
}

// onSegment reports whether collinear point p lies on segment ab.
func onSegment(a, b, p Point) bool {
	return math.Min(a.X, b.X)-orientationEps <= p.X && p.X <= math.Max(a.X, b.X)+orientationEps &&
		math.Min(a.Y, b.Y)-orientationEps <= p.Y && p.Y <= math.Max(a.Y, b.Y)+orientationEps
}

// SegmentsIntersect reports whether closed segments ab and cd share at
// least one point (proper crossings and touching endpoints both count).
func SegmentsIntersect(a, b, c, d Point) bool {
	o1 := Orient(a, b, c)
	o2 := Orient(a, b, d)
	o3 := Orient(c, d, a)
	o4 := Orient(c, d, b)
	if o1 != o2 && o3 != o4 {
		return true
	}
	switch {
	case o1 == Collinear && onSegment(a, b, c):
		return true
	case o2 == Collinear && onSegment(a, b, d):
		return true
	case o3 == Collinear && onSegment(c, d, a):
		return true
	case o4 == Collinear && onSegment(c, d, b):
		return true
	}
	return false
}

// SegmentsProperlyCross reports whether ab and cd cross at a single interior
// point of both segments (shared endpoints do not count). This is the test
// used for planarity checking, where adjacent graph edges legitimately share
// endpoints.
func SegmentsProperlyCross(a, b, c, d Point) bool {
	o1 := Orient(a, b, c)
	o2 := Orient(a, b, d)
	o3 := Orient(c, d, a)
	o4 := Orient(c, d, b)
	return o1 != o2 && o3 != o4 &&
		o1 != Collinear && o2 != Collinear && o3 != Collinear && o4 != Collinear
}

// SideOfRay returns which side of the directed ray origin→through the point
// p falls on: CounterClockwise (left), Clockwise (right), or Collinear.
// It is the predicate behind the critical/forbidden-region split, where
// Q_i(v) is divided by the ray from v through (x_{v(1)}, y_{v(2)}).
func SideOfRay(origin, through, p Point) Orientation {
	return Orient(origin, through, p)
}

// SegmentIntersectsRect reports whether segment ab touches rectangle r
// (including when it lies entirely inside).
func SegmentIntersectsRect(a, b Point, r Rect) bool {
	if r.Contains(a) || r.Contains(b) {
		return true
	}
	c := r.Corners()
	for i := 0; i < 4; i++ {
		if SegmentsIntersect(a, b, c[i], c[(i+1)%4]) {
			return true
		}
	}
	return false
}

// PerpBisectorIntersection returns the point equidistant from a, b, and c
// (the circumcenter of the triangle abc), i.e. the intersection of the
// perpendicular bisectors of ab and ac. ok is false when the three points
// are (nearly) collinear and no finite circumcenter exists. This is the
// geometric core of the TENT rule of BOUNDHOLE.
func PerpBisectorIntersection(a, b, c Point) (center Point, ok bool) {
	d := 2 * (a.X*(b.Y-c.Y) + b.X*(c.Y-a.Y) + c.X*(a.Y-b.Y))
	if math.Abs(d) < 1e-12 {
		return Point{}, false
	}
	a2 := a.Norm2()
	b2 := b.Norm2()
	c2 := c.Norm2()
	ux := (a2*(b.Y-c.Y) + b2*(c.Y-a.Y) + c2*(a.Y-b.Y)) / d
	uy := (a2*(c.X-b.X) + b2*(a.X-c.X) + c2*(b.X-a.X)) / d
	return Point{X: ux, Y: uy}, true
}
