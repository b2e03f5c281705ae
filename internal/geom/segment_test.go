package geom

import (
	"math"
	"testing"
)

func TestOrient(t *testing.T) {
	tests := []struct {
		name    string
		a, b, c Point
		want    Orientation
	}{
		{name: "ccw", a: Pt(0, 0), b: Pt(1, 0), c: Pt(0, 1), want: CounterClockwise},
		{name: "cw", a: Pt(0, 0), b: Pt(0, 1), c: Pt(1, 0), want: Clockwise},
		{name: "collinear", a: Pt(0, 0), b: Pt(1, 1), c: Pt(2, 2), want: Collinear},
		{name: "coincident", a: Pt(1, 1), b: Pt(1, 1), c: Pt(2, 2), want: Collinear},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Orient(tt.a, tt.b, tt.c); got != tt.want {
				t.Errorf("Orient = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentsIntersect(t *testing.T) {
	tests := []struct {
		name       string
		a, b, c, d Point
		want       bool
		proper     bool
	}{
		{name: "X crossing", a: Pt(0, 0), b: Pt(2, 2), c: Pt(0, 2), d: Pt(2, 0), want: true, proper: true},
		{name: "disjoint parallel", a: Pt(0, 0), b: Pt(1, 0), c: Pt(0, 1), d: Pt(1, 1), want: false, proper: false},
		{name: "shared endpoint", a: Pt(0, 0), b: Pt(1, 1), c: Pt(1, 1), d: Pt(2, 0), want: true, proper: false},
		{name: "T junction", a: Pt(0, 0), b: Pt(2, 0), c: Pt(1, 0), d: Pt(1, 1), want: true, proper: false},
		{name: "collinear overlap", a: Pt(0, 0), b: Pt(2, 0), c: Pt(1, 0), d: Pt(3, 0), want: true, proper: false},
		{name: "collinear disjoint", a: Pt(0, 0), b: Pt(1, 0), c: Pt(2, 0), d: Pt(3, 0), want: false, proper: false},
		{name: "near miss", a: Pt(0, 0), b: Pt(1, 0), c: Pt(0.5, 0.01), d: Pt(0.5, 1), want: false, proper: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentsIntersect(tt.a, tt.b, tt.c, tt.d); got != tt.want {
				t.Errorf("SegmentsIntersect = %v, want %v", got, tt.want)
			}
			if got := SegmentsProperlyCross(tt.a, tt.b, tt.c, tt.d); got != tt.proper {
				t.Errorf("SegmentsProperlyCross = %v, want %v", got, tt.proper)
			}
			// Symmetry in segment order.
			if got := SegmentsIntersect(tt.c, tt.d, tt.a, tt.b); got != tt.want {
				t.Errorf("SegmentsIntersect (swapped) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSideOfRay(t *testing.T) {
	origin, through := Pt(0, 0), Pt(1, 1)
	if got := SideOfRay(origin, through, Pt(0, 5)); got != CounterClockwise {
		t.Errorf("point left of ray: got %v", got)
	}
	if got := SideOfRay(origin, through, Pt(5, 0)); got != Clockwise {
		t.Errorf("point right of ray: got %v", got)
	}
	if got := SideOfRay(origin, through, Pt(3, 3)); got != Collinear {
		t.Errorf("point on ray: got %v", got)
	}
}

func TestDistPointSegment(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Point
		want    float64
	}{
		{name: "perpendicular foot", p: Pt(1, 1), a: Pt(0, 0), b: Pt(2, 0), want: 1},
		{name: "beyond a", p: Pt(-3, 4), a: Pt(0, 0), b: Pt(2, 0), want: 5},
		{name: "beyond b", p: Pt(5, 4), a: Pt(0, 0), b: Pt(2, 0), want: 5},
		{name: "degenerate segment", p: Pt(3, 4), a: Pt(0, 0), b: Pt(0, 0), want: 5},
		{name: "on segment", p: Pt(1, 0), a: Pt(0, 0), b: Pt(2, 0), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DistPointSegment(tt.p, tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("DistPointSegment = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := FromCorners(Pt(2, 2), Pt(4, 4))
	tests := []struct {
		name string
		a, b Point
		want bool
	}{
		{name: "crosses through", a: Pt(0, 3), b: Pt(6, 3), want: true},
		{name: "endpoint inside", a: Pt(3, 3), b: Pt(10, 10), want: true},
		{name: "fully inside", a: Pt(2.5, 2.5), b: Pt(3.5, 3.5), want: true},
		{name: "touches corner", a: Pt(0, 0), b: Pt(2, 2), want: true},
		{name: "misses entirely", a: Pt(0, 0), b: Pt(1, 5), want: false},
		{name: "parallel outside", a: Pt(0, 5), b: Pt(6, 5), want: false},
		{name: "clips one edge", a: Pt(1, 1), b: Pt(3, 2.5), want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentIntersectsRect(tt.a, tt.b, r); got != tt.want {
				t.Errorf("SegmentIntersectsRect(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			// Symmetric in segment direction.
			if got := SegmentIntersectsRect(tt.b, tt.a, r); got != tt.want {
				t.Errorf("reversed segment differs")
			}
		})
	}
}

func TestPerpBisectorIntersection(t *testing.T) {
	// Circumcenter of a right triangle is the hypotenuse midpoint.
	c, ok := PerpBisectorIntersection(Pt(0, 0), Pt(2, 0), Pt(0, 2))
	if !ok {
		t.Fatal("expected a circumcenter")
	}
	if !c.Eq(Pt(1, 1), 1e-9) {
		t.Errorf("circumcenter = %v, want (1,1)", c)
	}
	// Equidistance property.
	for _, p := range []Point{Pt(0, 0), Pt(2, 0), Pt(0, 2)} {
		if math.Abs(Dist(c, p)-math.Sqrt2) > 1e-9 {
			t.Errorf("circumcenter not equidistant from %v", p)
		}
	}
	if _, ok := PerpBisectorIntersection(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear points should have no circumcenter")
	}
}

// DistPointSegment returns the distance from p to the closest point of
// segment ab.
func DistPointSegment(p, a, b Point) float64 {
	ab := b.Sub(a)
	den := ab.Norm2()
	if den == 0 {
		return Dist(p, a)
	}
	t := p.Sub(a).Dot(ab) / den
	t = math.Max(0, math.Min(1, t))
	return Dist(p, Lerp(a, b, t))
}
