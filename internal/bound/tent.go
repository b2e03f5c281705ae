package bound

import (
	"math"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// StuckInterval is an angular interval of directions (CCW from Lo to Hi,
// radians from the +X axis) in which the node is a potential local minimum
// of greedy forwarding.
type StuckInterval struct {
	Lo, Hi float64
}

// Contains reports whether direction theta falls inside the interval.
func (s StuckInterval) Contains(theta float64) bool {
	return geom.InCCWInterval(theta, s.Lo, s.Hi)
}

// TentResult records the stuck analysis of one node.
type TentResult struct {
	Node topo.NodeID
	// Intervals are the stuck direction ranges; empty means the node can
	// never be a greedy local minimum.
	Intervals []StuckInterval
}

// Tent applies the TENT rule at node u: order the alive neighbors by
// angle; for each angularly adjacent pair (v1, v2), the directions between
// them are stuck iff the circumcenter of (u, v1, v2) falls outside u's
// transmission disk (at exactly 120° spread with both neighbors at full
// range the circumcenter sits on the disk boundary, which is the paper's
// 120° rule). Nodes with zero or one neighbor are stuck in all (or the
// complement) directions.
func Tent(net *topo.Network, u topo.NodeID) TentResult {
	ivs, _ := tent(net, u, nil, nil)
	return TentResult{Node: u, Intervals: ivs}
}

// tent is Tent appending u's stuck intervals to ivs and, per interval,
// to at the rotation position where its middle direction falls (what
// topo.Network.RotationSearch returns), found by walking back from the
// position of the interval's far neighbor, which the rotation pass
// already met. Appending into the caller's arenas, it allocates only
// when they grow.
func tent(net *topo.Network, u topo.NodeID, ivs []StuckInterval, at []int32) ([]StuckInterval, []int32) {
	up := net.Pos(u)
	angs, rot := net.AdjacencyAngles(u), net.AdjacencyRotation(u)

	// One representative neighbor per distinct direction, in the row's
	// rotation order: consecutive bearings within sameAngle share a
	// direction, and the first and last directions meet across 0/2π.
	// When several neighbors share a direction the nearest one (the
	// lowest column among equals) dominates the TENT test (its bisector
	// half-plane covers the others'), so it represents them. Positions
	// are the packed row coordinates; pos is the rotation position.
	type dirNbr struct {
		angle    float64
		col, pos int32
	}
	row := net.AdjacencyRow(u)
	xs, ys := net.AdjacencyXY(u)
	pt := func(d dirNbr) geom.Point { return geom.Pt(xs[d.col], ys[d.col]) }
	better := func(a, b dirNbr) bool {
		da, db := geom.Dist2(up, pt(a)), geom.Dist2(up, pt(b))
		return da < db || da == db && a.col < b.col
	}
	var buf [64]dirNbr
	dirs := buf[:0]
	checkAlive := net.DeadCount() > 0
	var first, last float64
	for pos, j := range rot {
		if checkAlive && !net.Alive(row[j]) {
			continue
		}
		d := dirNbr{angle: angs[j], col: j, pos: int32(pos)}
		switch {
		case len(dirs) == 0:
			first = d.angle
			dirs = append(dirs, d)
		case sameAngle(last, d.angle):
			if better(d, dirs[len(dirs)-1]) {
				dirs[len(dirs)-1] = d
			}
		default:
			dirs = append(dirs, d)
		}
		last = d.angle
	}
	if n := len(dirs); n > 1 && sameAngle(last, first) {
		if better(dirs[n-1], dirs[0]) {
			dirs = dirs[1:]
		} else {
			dirs = dirs[:n-1]
		}
	}

	// where returns the rotation position of the bearing mid, walking
	// back from position h, which must be at or past it.
	where := func(mid float64, h int) int32 {
		if h < len(rot) && angs[rot[h]] < mid {
			h = len(rot)
		}
		for h > 0 && angs[rot[h-1]] >= mid {
			h--
		}
		return int32(h)
	}
	switch len(dirs) {
	case 0:
		iv := StuckInterval{Lo: 0, Hi: geom.TwoPi - 1e-9}
		ivs, at = append(ivs, iv), append(at, where(iv.MidDirection(), len(rot)))
	case 1:
		// Only the exact direction of the sole neighbor line is safe.
		a := dirs[0].angle
		iv := StuckInterval{Lo: geom.NormAngle(a + 1e-6), Hi: geom.NormAngle(a - 1e-6)}
		ivs, at = append(ivs, iv), append(at, where(iv.MidDirection(), len(rot)))
	default:
		for i := range dirs {
			d1 := dirs[i]
			d2 := dirs[(i+1)%len(dirs)]
			if geom.CCWDelta(d1.angle, d2.angle) < 1e-9 {
				continue // no directions strictly between
			}
			if stuckBetween(up, pt(d1), pt(d2), net.Radius) {
				iv := StuckInterval{Lo: d1.angle, Hi: d2.angle}
				ivs, at = append(ivs, iv), append(at, where(iv.MidDirection(), int(d2.pos)))
			}
		}
	}
	return ivs, at
}

// sameAngle absorbs float noise when comparing neighbor directions.
// Directions further apart than 1e-8 either way round are told apart
// without the two cyclic deltas.
func sameAngle(a, b float64) bool {
	if d := math.Abs(a - b); d > 1e-8 && d < geom.TwoPi-1e-8 {
		return false
	}
	return geom.CCWDelta(a, b) < 1e-9 || geom.CWDelta(a, b) < 1e-9
}

// stuckBetween reports whether the directions between the neighbors at
// p1 and p2 are stuck at up, for radio range r.
func stuckBetween(up, p1, p2 geom.Point, r float64) bool {
	c, ok := geom.PerpBisectorIntersection(up, p1, p2)
	if !ok {
		// u, v1, v2 collinear: the bisectors are parallel, no point is
		// simultaneously farther from u than both; treat as stuck (the
		// gap spans at least a half-plane).
		return true
	}
	// The squared distance decides unless it lies within a relative 1e-9
	// of the squared bound, a band far wider than its rounding error;
	// inside the band Dist decides, so the answer is Dist's everywhere.
	t := r + 1e-9
	switch d2 := geom.Dist2(up, c); {
	case d2 > t*t*(1+1e-9):
		return true
	case d2 < t*t*(1-1e-9):
		return false
	}
	return geom.Dist(up, c) > t
}

// MidDirection returns the middle direction of the interval, useful for
// seeding a boundary walk into the hole.
func (s StuckInterval) MidDirection() float64 {
	return geom.NormAngle(s.Lo + geom.CCWDelta(s.Lo, s.Hi)/2)
}

// Width returns the angular width of the interval.
func (s StuckInterval) Width() float64 { return geom.CCWDelta(s.Lo, s.Hi) }
