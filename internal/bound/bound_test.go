package bound

import (
	"math"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
	"github.com/straightpath/wasn/internal/topo"
)

func buildNet(t *testing.T, pts []geom.Point, radius float64) *topo.Network {
	t.Helper()
	net, err := topo.NewNetwork(pts, radius, geom.FromCorners(geom.Pt(0, 0), geom.Pt(200, 200)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestTentIsolatedAndPendant(t *testing.T) {
	net := buildNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(100, 100), geom.Pt(108, 100)}, 10)
	// Node 0 is isolated: stuck everywhere.
	r0 := Tent(net, 0)
	if !r0.Stuck() {
		t.Fatal("isolated node not stuck")
	}
	if !r0.StuckToward(net.Pos(0), geom.Pt(50, 50)) {
		t.Error("isolated node should be stuck toward anything")
	}
	// Node 1 has one neighbor to its east: stuck toward the west.
	r1 := Tent(net, 1)
	if !r1.Stuck() {
		t.Fatal("pendant node not stuck")
	}
	if !r1.StuckToward(net.Pos(1), geom.Pt(0, 100)) {
		t.Error("pendant node should be stuck away from its neighbor")
	}
}

func TestTentDenseCenterNotStuck(t *testing.T) {
	// Center with 6 neighbors spread every 60 degrees at distance 8
	// (radius 10): circumcenters of adjacent pairs stay within range, so
	// the center has no stuck direction.
	pts := []geom.Point{geom.Pt(100, 100)}
	for k := 0; k < 6; k++ {
		a := float64(k) * math.Pi / 3
		pts = append(pts, geom.Pt(100+8*math.Cos(a), 100+8*math.Sin(a)))
	}
	net := buildNet(t, pts, 10)
	if r := Tent(net, 0); r.Stuck() {
		t.Errorf("well-surrounded node reported stuck: %+v", r.Intervals)
	}
}

func TestTentWideGapStuck(t *testing.T) {
	// Two neighbors 170 degrees apart at full range: the gap between
	// them exceeds 120 degrees, so the node is stuck in between.
	c := geom.Pt(100, 100)
	pts := []geom.Point{
		c,
		geom.Pt(100+10*math.Cos(0.0), 100+10*math.Sin(0.0)),
		geom.Pt(100+10*math.Cos(170*math.Pi/180), 100+10*math.Sin(170*math.Pi/180)),
	}
	net := buildNet(t, pts, 10)
	r := Tent(net, 0)
	if !r.Stuck() {
		t.Fatal("wide-gap node not stuck")
	}
	// Stuck toward the middle of the wide gap (85 degrees).
	mid := geom.Pt(100+20*math.Cos(85*math.Pi/180), 100+20*math.Sin(85*math.Pi/180))
	if !r.StuckToward(c, mid) {
		t.Error("node should be stuck toward the gap middle")
	}
}

func TestTent120DegreeBoundary(t *testing.T) {
	// Exactly 120 degrees apart at full range: circumcenter distance is
	// exactly R; the rule should NOT mark it stuck (boundary case), but
	// slightly wider must be stuck.
	// Neighbors sit at 9.99 not 10.0: exactly-at-range placement is lost
	// to float rounding in dist^2 comparisons.
	mk := func(sep float64) TentResult {
		c := geom.Pt(100, 100)
		pts := []geom.Point{
			c,
			geom.Pt(100+9.99*math.Cos(0.0), 100+9.99*math.Sin(0.0)),
			geom.Pt(100+9.99*math.Cos(sep), 100+9.99*math.Sin(sep)),
		}
		net := buildNet(t, pts, 10)
		return Tent(net, 0)
	}
	within := mk(119 * math.Pi / 180)
	for _, iv := range within.Intervals {
		if iv.Contains(math.Pi / 3) { // direction inside the 119° gap
			t.Error("119-degree gap should not be stuck inside the gap")
		}
	}
	wide := mk(125 * math.Pi / 180)
	stuckInGap := false
	for _, iv := range wide.Intervals {
		if iv.Contains(math.Pi / 3) {
			stuckInGap = true
		}
	}
	if !stuckInGap {
		t.Error("125-degree gap should be stuck inside the gap")
	}
}

// holeyNetwork builds a ring of nodes around an empty middle: a classic
// hole whose inner ring nodes are stuck toward the center.
func holeyNetwork(t *testing.T) (*topo.Network, geom.Point) {
	t.Helper()
	center := geom.Pt(100, 100)
	var pts []geom.Point
	// Inner ring radius 30, spacing < R=20 apart (circumference 188, 16
	// nodes -> spacing ~11.8).
	for k := 0; k < 16; k++ {
		a := float64(k) / 16 * geom.TwoPi
		pts = append(pts, geom.Pt(100+30*math.Cos(a), 100+30*math.Sin(a)))
	}
	// Outer shell so the ring is not the network edge.
	for k := 0; k < 24; k++ {
		a := float64(k) / 24 * geom.TwoPi
		pts = append(pts, geom.Pt(100+45*math.Cos(a), 100+45*math.Sin(a)))
	}
	return buildNet(t, pts, 20), center
}

func TestStuckNodesOnRing(t *testing.T) {
	net, center := holeyNetwork(t)
	stuck := StuckNodes(net)
	// At least one inner-ring node must be stuck toward the hole center.
	found := false
	for u := topo.NodeID(0); u < 16; u++ {
		if stuck[u].StuckToward(net.Pos(u), center) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no inner-ring node stuck toward the hole center")
	}
}

func TestFindHolesOnRing(t *testing.T) {
	net, center := holeyNetwork(t)
	b := FindHoles(net)
	if len(b.Holes) == 0 {
		t.Fatal("no holes found around an obvious void")
	}
	// Some hole's bounding box must contain the hole center.
	found := false
	for _, h := range b.Holes {
		if h.BBox.Contains(center) {
			found = true
			// Boundary must be a cycle of real edges.
			for i := 0; i < h.Len(); i++ {
				u := h.Cycle[i]
				v := h.Cycle[(i+1)%h.Len()]
				if u != v && !net.InRange(u, v) {
					t.Errorf("boundary edge %d-%d not a network edge", u, v)
				}
				if !b.OnBoundary(u) {
					t.Errorf("cycle node %d not indexed", u)
				}
				if hs := b.HolesAt(u); len(hs) == 0 {
					t.Errorf("HolesAt(%d) empty for boundary node", u)
				}
			}
		}
	}
	if !found {
		t.Error("no hole boundary surrounds the void center")
	}
	if b.MessageCount <= 0 {
		t.Error("construction message count not recorded")
	}
}

func TestFollowBoundary(t *testing.T) {
	h := &Hole{Cycle: []topo.NodeID{5, 7, 9, 11}}
	if v, ok := FollowBoundary(h, 7, +1); !ok || v != 9 {
		t.Errorf("forward from 7 = %v/%v, want 9", v, ok)
	}
	if v, ok := FollowBoundary(h, 5, -1); !ok || v != 11 {
		t.Errorf("backward from 5 = %v/%v, want 11", v, ok)
	}
	if _, ok := FollowBoundary(h, 99, +1); ok {
		t.Error("non-member should not be followed")
	}
}

func TestStuckIntervalHelpers(t *testing.T) {
	iv := StuckInterval{Lo: 3 * math.Pi / 2, Hi: math.Pi / 2} // wraps through 0
	if !iv.Contains(0) {
		t.Error("wrapping interval should contain 0")
	}
	if iv.Contains(math.Pi) {
		t.Error("wrapping interval should not contain pi")
	}
	if got := iv.Width(); math.Abs(got-math.Pi) > 1e-9 {
		t.Errorf("Width = %v, want pi", got)
	}
	if got := iv.MidDirection(); math.Abs(got) > 1e-9 && math.Abs(got-geom.TwoPi) > 1e-9 {
		t.Errorf("MidDirection = %v, want 0", got)
	}
}

func TestFindHolesCleanGrid(t *testing.T) {
	// A dense grid has no interior holes; any boundaries found must hug
	// the outer edge, and no interior node may be stuck.
	var pts []geom.Point
	for x := 0; x <= 10; x++ {
		for y := 0; y <= 10; y++ {
			pts = append(pts, geom.Pt(float64(x)*8+60, float64(y)*8+60))
		}
	}
	net := buildNet(t, pts, 20)
	for u, r := range StuckNodes(net) {
		p := net.Pos(topo.NodeID(u))
		if r.Stuck() && p.X > 70 && p.X < 130 && p.Y > 70 && p.Y < 130 {
			t.Errorf("interior grid node %d at %v reported stuck", u, p)
		}
	}
}

// Stuck reports whether the node has any stuck direction.
func (t TentResult) Stuck() bool { return len(t.Intervals) > 0 }

// StuckToward reports whether routing greedily toward target can get stuck
// at this node, i.e. whether the direction of target lies in a stuck
// interval.
func (t TentResult) StuckToward(from, target geom.Point) bool {
	theta := geom.Angle(from, target)
	for _, iv := range t.Intervals {
		if iv.Contains(theta) {
			return true
		}
	}
	return false
}

// StuckNodes runs the TENT rule on every alive node and returns the
// results indexed by node id; dead and never-stuck nodes hold results
// without intervals. The per-node tests are independent and fan out
// across GOMAXPROCS.
func StuckNodes(net *topo.Network) []TentResult {
	perNode := make([]TentResult, net.N())
	par.For(net.N(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := topo.NodeID(i)
			if !net.Alive(u) {
				continue
			}
			perNode[i] = Tent(net, u)
		}
	})
	return perNode
}

// OnBoundary reports whether u lies on any hole boundary.
func (b *Boundaries) OnBoundary(u topo.NodeID) bool { return b.holeOff[u] < b.holeOff[u+1] }
