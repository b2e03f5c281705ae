package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromCornersNormalizes(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
	}{
		{name: "already normal", a: Pt(0, 0), b: Pt(2, 3)},
		{name: "swapped x", a: Pt(2, 0), b: Pt(0, 3)},
		{name: "swapped y", a: Pt(0, 3), b: Pt(2, 0)},
		{name: "swapped both", a: Pt(2, 3), b: Pt(0, 0)},
	}
	want := Rect{Min: Pt(0, 0), Max: Pt(2, 3)}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FromCorners(tt.a, tt.b); got != want {
				t.Errorf("FromCorners(%v, %v) = %v, want %v", tt.a, tt.b, got, want)
			}
		})
	}
}

func TestRectContains(t *testing.T) {
	r := FromCorners(Pt(0, 0), Pt(10, 5))
	tests := []struct {
		name   string
		p      Point
		want   bool
		strict bool
	}{
		{name: "center", p: Pt(5, 2.5), want: true, strict: true},
		{name: "corner", p: Pt(0, 0), want: true, strict: false},
		{name: "edge", p: Pt(10, 3), want: true, strict: false},
		{name: "outside x", p: Pt(10.01, 3), want: false, strict: false},
		{name: "outside y", p: Pt(5, -0.01), want: false, strict: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
			if got := r.ContainsStrict(tt.p); got != tt.strict {
				t.Errorf("ContainsStrict(%v) = %v, want %v", tt.p, got, tt.strict)
			}
		})
	}
}

func TestRectGeometry(t *testing.T) {
	r := FromCorners(Pt(1, 2), Pt(4, 6))
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %v, want 3", got)
	}
	if got := r.Height(); got != 4 {
		t.Errorf("Height = %v, want 4", got)
	}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Perimeter(); got != 14 {
		t.Errorf("Perimeter = %v, want 14", got)
	}
	if got := r.Center(); got != Pt(2.5, 4) {
		t.Errorf("Center = %v, want (2.5, 4)", got)
	}
	if r.Empty() || r.Degenerate() {
		t.Errorf("rect %v unexpectedly empty or degenerate", r)
	}
	if !FromCorners(Pt(1, 1), Pt(1, 5)).Degenerate() {
		t.Error("line segment rect should be degenerate")
	}
}

func TestRectInflateUnionIntersect(t *testing.T) {
	r := FromCorners(Pt(0, 0), Pt(2, 2))
	s := FromCorners(Pt(1, 1), Pt(4, 3))

	if got, want := r.Inflate(1), FromCorners(Pt(-1, -1), Pt(3, 3)); got != want {
		t.Errorf("Inflate = %v, want %v", got, want)
	}
	if got, want := r.Union(s), FromCorners(Pt(0, 0), Pt(4, 3)); got != want {
		t.Errorf("Union = %v, want %v", got, want)
	}
	inter, ok := r.Intersect(s)
	if !ok || inter != FromCorners(Pt(1, 1), Pt(2, 2)) {
		t.Errorf("Intersect = %v ok=%v, want [1:2,1:2] true", inter, ok)
	}
	if _, ok := r.Intersect(FromCorners(Pt(5, 5), Pt(6, 6))); ok {
		t.Error("disjoint rects reported as intersecting")
	}
	if !r.Overlaps(s) || r.Overlaps(FromCorners(Pt(5, 5), Pt(6, 6))) {
		t.Error("Overlaps misclassified")
	}
}

func TestRectClampDist(t *testing.T) {
	r := FromCorners(Pt(0, 0), Pt(2, 2))
	tests := []struct {
		name string
		p    Point
		want Point
		dist float64
	}{
		{name: "inside", p: Pt(1, 1), want: Pt(1, 1), dist: 0},
		{name: "left", p: Pt(-3, 1), want: Pt(0, 1), dist: 3},
		{name: "corner", p: Pt(5, 6), want: Pt(2, 2), dist: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Clamp(tt.p); got != tt.want {
				t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.want)
			}
			if got := r.DistTo(tt.p); math.Abs(got-tt.dist) > 1e-12 {
				t.Errorf("DistTo(%v) = %v, want %v", tt.p, got, tt.dist)
			}
		})
	}
}

func TestRectProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}

	// Union contains both inputs' corners.
	unionProp := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		r := FromCorners(Pt(ax, ay), Pt(bx, by))
		s := FromCorners(Pt(cx, cy), Pt(dx, dy))
		u := r.Union(s)
		for _, c := range r.Corners() {
			if !u.Contains(c) {
				return false
			}
		}
		for _, c := range s.Corners() {
			if !u.Contains(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(unionProp, cfg); err != nil {
		t.Errorf("union containment: %v", err)
	}

	// Clamp result is always contained and idempotent.
	clampProp := func(ax, ay, bx, by, px, py float64) bool {
		r := FromCorners(Pt(ax, ay), Pt(bx, by))
		c := r.Clamp(Pt(px, py))
		return r.Contains(c) && r.Clamp(c) == c
	}
	if err := quick.Check(clampProp, cfg); err != nil {
		t.Errorf("clamp: %v", err)
	}
}

func TestRectCornersCCW(t *testing.T) {
	r := FromCorners(Pt(0, 0), Pt(2, 3))
	c := r.Corners()
	if got := PolygonArea(c[:]); got <= 0 {
		t.Errorf("corners not CCW: signed area %v", got)
	}
}

// Intersect returns the overlap of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{X: math.Max(r.Min.X, s.Min.X), Y: math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{X: math.Min(r.Max.X, s.Max.X), Y: math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		return Rect{}, false
	}
	return out, true
}

// DistTo returns the Euclidean distance from p to the rectangle (zero when
// p is inside).
func (r Rect) DistTo(p Point) float64 { return Dist(p, r.Clamp(p)) }
