package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAngle(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{name: "east", a: Pt(0, 0), b: Pt(1, 0), want: 0},
		{name: "north", a: Pt(0, 0), b: Pt(0, 5), want: math.Pi / 2},
		{name: "west", a: Pt(0, 0), b: Pt(-2, 0), want: math.Pi},
		{name: "south", a: Pt(1, 1), b: Pt(1, 0), want: 3 * math.Pi / 2},
		{name: "ne diagonal", a: Pt(0, 0), b: Pt(1, 1), want: math.Pi / 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Angle(tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("Angle(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestNormAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-TwoPi - 0.25, TwoPi - 0.25},
	}
	for _, tt := range tests {
		if got := NormAngle(tt.in); !almostEq(got, tt.want) {
			t.Errorf("NormAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestDeltas(t *testing.T) {
	if got := CCWDelta(0, math.Pi/2); !almostEq(got, math.Pi/2) {
		t.Errorf("CCWDelta(0, π/2) = %v", got)
	}
	if got := CWDelta(0, math.Pi/2); !almostEq(got, 3*math.Pi/2) {
		t.Errorf("CWDelta(0, π/2) = %v", got)
	}
	if got := CCWDelta(3*math.Pi/2, 0); !almostEq(got, math.Pi/2) {
		t.Errorf("CCWDelta wrap = %v", got)
	}

	// CCW + CW deltas of distinct angles sum to a full turn.
	prop := func(a, b float64) bool {
		fa, fb := NormAngle(a), NormAngle(b)
		if almostEq(fa, fb) {
			return true
		}
		return almostEq(CCWDelta(fa, fb)+CWDelta(fa, fb), TwoPi)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("delta complement: %v", err)
	}
}

func TestAngleBetween(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Point
		want    float64
	}{
		{name: "right angle", p: Pt(0, 0), a: Pt(1, 0), b: Pt(0, 1), want: math.Pi / 2},
		{name: "straight", p: Pt(0, 0), a: Pt(1, 0), b: Pt(-1, 0), want: math.Pi},
		{name: "same ray", p: Pt(0, 0), a: Pt(1, 0), b: Pt(2, 0), want: 0},
		{name: "degenerate", p: Pt(0, 0), a: Pt(0, 0), b: Pt(1, 0), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AngleBetween(tt.p, tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("AngleBetween = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestInCCWInterval(t *testing.T) {
	tests := []struct {
		name       string
		t0, lo, hi float64
		want       bool
	}{
		{name: "inside simple", t0: 1, lo: 0.5, hi: 2, want: true},
		{name: "below", t0: 0.25, lo: 0.5, hi: 2, want: false},
		{name: "wrapping inside", t0: 0.1, lo: 6, hi: 1, want: true},
		{name: "wrapping outside", t0: 3, lo: 6, hi: 1, want: false},
		{name: "endpoint lo", t0: 0.5, lo: 0.5, hi: 2, want: true},
		{name: "endpoint hi", t0: 2, lo: 0.5, hi: 2, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := InCCWInterval(tt.t0, tt.lo, tt.hi); got != tt.want {
				t.Errorf("InCCWInterval(%v, %v, %v) = %v, want %v", tt.t0, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

// AngleBetween returns the unsigned angle at vertex p between rays p→a and
// p→b, in [0, π].
func AngleBetween(p, a, b Point) float64 {
	va := a.Sub(p)
	vb := b.Sub(p)
	na := va.Norm()
	nb := vb.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	c := va.Dot(vb) / (na * nb)
	c = math.Max(-1, math.Min(1, c))
	return math.Acos(c)
}
