package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	tests := []struct {
		name string
		got  Point
		want Point
	}{
		{name: "add", got: Pt(1, 2).Add(Pt(3, -4)), want: Pt(4, -2)},
		{name: "sub", got: Pt(1, 2).Sub(Pt(3, -4)), want: Pt(-2, 6)},
		{name: "scale", got: Pt(1.5, -2).Scale(2), want: Pt(3, -4)},
		{name: "midpoint", got: Midpoint(Pt(0, 0), Pt(4, 6)), want: Pt(2, 3)},
		{name: "lerp half", got: Lerp(Pt(0, 0), Pt(10, -2), 0.5), want: Pt(5, -1)},
		{name: "lerp zero", got: Lerp(Pt(3, 4), Pt(10, -2), 0), want: Pt(3, 4)},
		{name: "lerp one", got: Lerp(Pt(3, 4), Pt(10, -2), 1), want: Pt(10, -2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Eq(tt.want, 1e-12) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{name: "zero", a: Pt(1, 1), b: Pt(1, 1), want: 0},
		{name: "axis", a: Pt(0, 0), b: Pt(3, 0), want: 3},
		{name: "345", a: Pt(0, 0), b: Pt(3, 4), want: 5},
		{name: "negative", a: Pt(-1, -1), b: Pt(2, 3), want: 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
			if got := Dist2(tt.a, tt.b); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("Dist2(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by float64) bool {
		// Bound inputs: near-max float64 coordinates overflow to +Inf,
		// and Inf-Inf is NaN.
		bound := func(v float64) float64 { return math.Mod(v, 1e9) }
		a, b := Pt(bound(ax), bound(ay)), Pt(bound(bx), bound(by))
		return math.Abs(Dist(a, b)-Dist(b, a)) < 1e-9
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("distance not symmetric: %v", err)
	}

	triangle := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound inputs: huge magnitudes overflow the inequality's epsilon.
		bound := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Pt(bound(ax), bound(ay))
		b := Pt(bound(bx), bound(by))
		c := Pt(bound(cx), bound(cy))
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality violated: %v", err)
	}
}

func TestCrossSign(t *testing.T) {
	// +X crossed into +Y is positive (counter-clockwise).
	if c := Pt(1, 0).Cross(Pt(0, 1)); c <= 0 {
		t.Errorf("Cross(+X, +Y) = %v, want > 0", c)
	}
	if c := Pt(0, 1).Cross(Pt(1, 0)); c >= 0 {
		t.Errorf("Cross(+Y, +X) = %v, want < 0", c)
	}
}

// Scale returns p scaled by k about the origin.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }
