package geom

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2), // the square corners
		Pt(1, 1), Pt(0.5, 1.5), // interior
		Pt(1, 0), // collinear boundary point, excluded by strict hull
	}
	ids := ConvexHullIndices(pts)
	if len(ids) != 4 {
		t.Fatalf("hull size = %d, want 4 (got %v)", len(ids), ids)
	}
	onHull := map[int]bool{}
	for _, id := range ids {
		onHull[id] = true
	}
	for _, want := range []int{0, 1, 2, 3} {
		if !onHull[want] {
			t.Errorf("corner %d missing from hull %v", want, ids)
		}
	}
	hull := ConvexHull(pts)
	if PolygonArea(hull) <= 0 {
		t.Error("hull not CCW")
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	tests := []struct {
		name string
		pts  []Point
		want int
	}{
		{name: "empty", pts: nil, want: 0},
		{name: "single", pts: []Point{Pt(1, 1)}, want: 1},
		{name: "duplicate single", pts: []Point{Pt(1, 1), Pt(1, 1)}, want: 1},
		{name: "pair", pts: []Point{Pt(0, 0), Pt(1, 1)}, want: 2},
		{name: "collinear", pts: []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ids := ConvexHullIndices(tt.pts)
			if len(ids) != tt.want {
				t.Errorf("hull size = %d, want %d (%v)", len(ids), tt.want, ids)
			}
		})
	}
}

// Property: every input point is inside (or on) the hull polygon, and hull
// vertices are a subset of the input.
func TestConvexHullContainsAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.IntN(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			t.Fatalf("trial %d: degenerate hull for random points", trial)
		}
		for i, p := range pts {
			if !PointInConvexPolygon(p, hull) {
				t.Fatalf("trial %d: point %d %v outside its own hull", trial, i, p)
			}
		}
	}
}

// Coincident points resolve by index: when a hull vertex's position is
// shared by two indices, the hull keeps the lower one whatever the rest
// of the point set is, so callers can reason about which node it takes.
func TestConvexHullCoincidentKeepsLowestIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.IntN(80)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHullIndices(pts)
		v := hull[rng.IntN(len(hull))]
		w := rng.IntN(n - 1)
		if w >= v {
			w++
		}
		pts[w] = pts[v]
		lo, hi := min(v, w), max(v, w)
		hull = ConvexHullIndices(pts)
		if !slices.Contains(hull, lo) || slices.Contains(hull, hi) {
			t.Fatalf("trial %d: %v shared by %d and %d; hull %v keeps the wrong one", trial, pts[v], lo, hi, hull)
		}
	}
}

func TestPointInConvexPolygon(t *testing.T) {
	tri := []Point{Pt(0, 0), Pt(4, 0), Pt(0, 4)}
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{name: "inside", p: Pt(1, 1), want: true},
		{name: "vertex", p: Pt(0, 0), want: true},
		{name: "edge", p: Pt(2, 0), want: true},
		{name: "outside", p: Pt(3, 3), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PointInConvexPolygon(tt.p, tri); got != tt.want {
				t.Errorf("PointInConvexPolygon(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
	if PointInConvexPolygon(Pt(0, 0), nil) {
		t.Error("empty polygon contains nothing")
	}
	if !PointInConvexPolygon(Pt(1, 1), []Point{Pt(1, 1)}) {
		t.Error("single-point polygon should contain its point")
	}
	if !PointInConvexPolygon(Pt(1, 0), []Point{Pt(0, 0), Pt(2, 0)}) {
		t.Error("two-point polygon should contain segment points")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := PolygonArea(sq); got != 4 {
		t.Errorf("area = %v, want 4", got)
	}
	// Reversed (CW) polygon has negative signed area.
	rev := []Point{Pt(0, 2), Pt(2, 2), Pt(2, 0), Pt(0, 0)}
	if got := PolygonArea(rev); got != -4 {
		t.Errorf("reversed area = %v, want -4", got)
	}
}

// ConvexHull returns the hull points themselves, CCW order.
func ConvexHull(pts []Point) []Point {
	ids := ConvexHullIndices(pts)
	out := make([]Point, len(ids))
	for i, id := range ids {
		out[i] = pts[id]
	}
	return out
}

// PointInConvexPolygon reports whether p lies inside or on the boundary of
// the convex polygon poly given in CCW order.
func PointInConvexPolygon(p Point, poly []Point) bool {
	n := len(poly)
	if n == 0 {
		return false
	}
	if n == 1 {
		return poly[0].Eq(p, orientationEps)
	}
	if n == 2 {
		return Orient(poly[0], poly[1], p) == Collinear && onSegment(poly[0], poly[1], p)
	}
	for i := 0; i < n; i++ {
		if Orient(poly[i], poly[(i+1)%n], p) == Clockwise {
			return false
		}
	}
	return true
}

// PolygonArea returns the signed area of the polygon (positive for CCW).
func PolygonArea(poly []Point) float64 {
	var sum float64
	n := len(poly)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += poly[i].Cross(poly[j])
	}
	return sum / 2
}
