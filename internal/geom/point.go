// Package geom provides the computational-geometry primitives used across
// the WASN simulator: points and vectors in the plane, axis-aligned
// rectangles, quadrants and request zones, angular sweeps, segment
// intersection tests, and convex hulls.
//
// All coordinates are float64 meters in the deployment plane. The package
// has no dependencies beyond the standard library and is deterministic:
// no function reads global state.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the deployment plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product of p and q viewed as
// vectors. It is positive when q is counter-clockwise of p.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p viewed as a vector.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance |L(p)-L(q)| between p and q.
func Dist(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison form on hot paths.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the point halfway between p and q.
func Midpoint(p, q Point) Point { return Point{X: (p.X + q.X) / 2, Y: (p.Y + q.Y) / 2} }

// Lerp linearly interpolates from p (t=0) to q (t=1).
func Lerp(p, q Point, t float64) Point {
	return Point{X: p.X + (q.X-p.X)*t, Y: p.Y + (q.Y-p.Y)*t}
}

// Eq reports whether p and q coincide to within eps in each coordinate.
func (p Point) Eq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}
