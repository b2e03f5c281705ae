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
	res := TentResult{Node: u}
	up := net.Pos(u)

	// One representative neighbor per distinct direction, in the row's
	// rotation order: consecutive bearings within sameAngle share a
	// direction, and the first and last directions meet across 0/2π.
	// When several neighbors share a direction the nearest one (the
	// lowest column among equals) dominates the TENT test (its bisector
	// half-plane covers the others'), so it represents them.
	type dirNbr struct {
		angle float64
		node  topo.NodeID
		dist2 float64
		col   int32
	}
	better := func(a, b dirNbr) bool { return a.dist2 < b.dist2 || a.dist2 == b.dist2 && a.col < b.col }
	var buf [64]dirNbr
	dirs := buf[:0]
	row := net.AdjacencyRow(u)
	angs := net.AdjacencyAngles(u)
	checkAlive := net.DeadCount() > 0
	var first, last float64
	for _, j := range net.AdjacencyRotation(u) {
		v := row[j]
		if checkAlive && !net.Alive(v) {
			continue
		}
		d := dirNbr{angle: angs[j], node: v, dist2: geom.Dist2(up, net.Pos(v)), col: j}
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

	switch len(dirs) {
	case 0:
		res.Intervals = []StuckInterval{{Lo: 0, Hi: geom.TwoPi - 1e-9}}
		return res
	case 1:
		// Only the exact direction of the sole neighbor line is safe.
		a := dirs[0].angle
		res.Intervals = []StuckInterval{{Lo: geom.NormAngle(a + 1e-6), Hi: geom.NormAngle(a - 1e-6)}}
		return res
	}

	for i := range dirs {
		d1 := dirs[i]
		d2 := dirs[(i+1)%len(dirs)]
		if geom.CCWDelta(d1.angle, d2.angle) < 1e-9 {
			continue // no directions strictly between
		}
		if stuckBetween(net, up, d1.node, d2.node) {
			res.Intervals = append(res.Intervals, StuckInterval{Lo: d1.angle, Hi: d2.angle})
		}
	}
	return res
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

func stuckBetween(net *topo.Network, up geom.Point, v1, v2 topo.NodeID) bool {
	p1, p2 := net.Pos(v1), net.Pos(v2)
	c, ok := geom.PerpBisectorIntersection(up, p1, p2)
	if !ok {
		// u, v1, v2 collinear: the bisectors are parallel, no point is
		// simultaneously farther from u than both; treat as stuck (the
		// gap spans at least a half-plane).
		return true
	}
	return geom.Dist(up, c) > net.Radius+1e-9
}

// MidDirection returns the middle direction of the interval, useful for
// seeding a boundary walk into the hole.
func (s StuckInterval) MidDirection() float64 {
	return geom.NormAngle(s.Lo + geom.CCWDelta(s.Lo, s.Hi)/2)
}

// Width returns the angular width of the interval.
func (s StuckInterval) Width() float64 { return geom.CCWDelta(s.Lo, s.Hi) }
