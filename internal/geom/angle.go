package geom

import "math"

// Angular helpers. Angles are radians in [0, 2π) measured counter-clockwise
// from the +X axis, matching the paper's ray-rotation descriptions ("rotate
// the ray ud counter-clockwise until the first untried node is hit").

// TwoPi is 2π, the full turn.
const TwoPi = 2 * math.Pi

// Angle returns the direction of the vector from a to b in [0, 2π).
func Angle(a, b Point) float64 {
	return NormAngle(math.Atan2(b.Y-a.Y, b.X-a.X))
}

// NormAngle maps any angle to [0, 2π). The angular hot paths (router
// sweeps, BOUNDHOLE walks, face steps) call this on differences of
// already-normalized bearings, which always land in (-2π, 2π) — for
// those math.Mod returns its argument unchanged, so the fast paths
// below are bit-identical to the Mod-based reduction while skipping
// its cost.
func NormAngle(t float64) float64 {
	if 0 <= t && t < TwoPi {
		return t
	}
	if -TwoPi <= t && t < 0 {
		return t + TwoPi
	}
	t = math.Mod(t, TwoPi)
	if t < 0 {
		t += TwoPi
	}
	return t
}

// CCWDelta returns how far a ray at angle `from` must rotate
// counter-clockwise to reach angle `to`, in [0, 2π).
func CCWDelta(from, to float64) float64 { return NormAngle(to - from) }

// CWDelta returns how far a ray at angle `from` must rotate clockwise to
// reach angle `to`, in [0, 2π).
func CWDelta(from, to float64) float64 { return NormAngle(from - to) }

// InCCWInterval reports whether angle t lies in the counter-clockwise
// interval from lo to hi (inclusive of both endpoints). The interval may
// wrap around 0.
func InCCWInterval(t, lo, hi float64) bool {
	return CCWDelta(lo, t) <= CCWDelta(lo, hi)
}
