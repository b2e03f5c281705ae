package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle stored in normalized form
// (Min.X <= Max.X and Min.Y <= Max.Y).
//
// The paper writes [x1:x2, y1:y2] for the rectangle with corners (x1,y1),
// (x1,y2), (x2,y2), (x2,y1); FromCorners accepts corners in any order and
// normalizes.
type Rect struct {
	Min, Max Point
}

// FromCorners returns the normalized rectangle spanned by two opposite
// corners given in any order. This matches the paper's [xu:xd, yu:yd]
// request-zone notation, where either corner may dominate.
func FromCorners(a, b Point) Rect {
	return Rect{
		Min: Point{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Point{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f:%.2f, %.2f:%.2f]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsStrict reports whether p lies strictly inside r.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X > r.Min.X && p.X < r.Max.X && p.Y > r.Min.Y && p.Y < r.Max.Y
}

// Width returns Max.X - Min.X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns Max.Y - Min.Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Perimeter returns the perimeter of r.
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the center point of r.
func (r Rect) Center() Point { return Midpoint(r.Min, r.Max) }

// Empty reports whether r has zero (or negative, i.e. unnormalized) extent
// in either dimension.
func (r Rect) Empty() bool { return r.Max.X <= r.Min.X || r.Max.Y <= r.Min.Y }

// Degenerate reports whether r collapses to a point or a line segment.
func (r Rect) Degenerate() bool { return r.Width() == 0 || r.Height() == 0 }

// Inflate returns r grown by m on every side. A negative m shrinks the
// rectangle; the result is re-normalized if it inverts.
func (r Rect) Inflate(m float64) Rect {
	return FromCorners(
		Point{X: r.Min.X - m, Y: r.Min.Y - m},
		Point{X: r.Max.X + m, Y: r.Max.Y + m},
	)
}

// Union returns the smallest rectangle containing both r and s. It uses
// the built-in min and max, which agree with math.Min and math.Max on
// finite values, signed zeros and NaN (they differ only for a NaN
// against an infinity) and compile inline.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{X: min(r.Min.X, s.Min.X), Y: min(r.Min.Y, s.Min.Y)},
		Max: Point{X: max(r.Max.X, s.Max.X), Y: max(r.Max.Y, s.Max.Y)},
	}
}

// Overlaps reports whether r and s share any point (boundary inclusive).
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Corners returns the four corners of r in counter-clockwise order starting
// at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{X: r.Max.X, Y: r.Min.Y},
		r.Max,
		{X: r.Min.X, Y: r.Max.Y},
	}
}
