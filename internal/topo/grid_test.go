package topo

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

// requireGridExact checks the grid's range query at every node against a
// brute-force scan of all nodes, Dist2 ≤ r², and returns how many pairs
// the scan found at exactly the range.
func requireGridExact(t *testing.T, label string, net *Network) (atRange int) {
	t.Helper()
	r2 := net.Radius * net.Radius
	for i := range net.Nodes {
		u := NodeID(i)
		got := net.grid.appendInRange(nil, net.Nodes, u, r2)
		slices.Sort(got)
		var want []NodeID
		for j := range net.Nodes {
			d2 := geom.Dist2(net.Nodes[i].Pos, net.Nodes[j].Pos)
			if j != i && d2 <= r2 {
				want = append(want, NodeID(j))
			}
			if j != i && d2 == r2 {
				atRange++
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: grid query at node %d %v = %v; brute force %v", label, u, net.Nodes[i].Pos, got, want)
		}
	}
	return atRange
}

// TestGridMatchesBruteForce pins the 3×3 grid query to a brute-force
// scan: pairs at exactly the range and one ulp either side of it,
// placed across cell boundaries and along diagonals; nodes outside the
// field, which hash into clamped edge cells; and the retained grid after
// batches of moves, some of them out of the field and back.
func TestGridMatchesBruteForce(t *testing.T) {
	const r = 10.0
	field := geom.FromCorners(geom.Pt(0, 0), geom.Pt(100, 100))
	probe, err := NewNetwork(nil, r, field)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs start at, just below and just above the grid's own cell
	// boundaries, so a grid whose cells were narrower than the range by
	// any margin it rounds to would put some pair two cells apart.
	cell := probe.grid.cell
	var pts []geom.Point
	for k := 1; k < 10; k++ {
		for _, eps := range []float64{0, 1e-12, 1e-10, 5e-9, -1e-9} {
			x := float64(k)*cell - eps
			y := float64(k) * 9.7
			// Along the x axis at the range and one ulp either side.
			for _, d := range []float64{r, math.Nextafter(r, 0), math.Nextafter(r, 20)} {
				pts = append(pts, geom.Pt(x, y), geom.Pt(x+d, y))
			}
			// A 6-8-10 pair, whose squared distance is exactly r².
			pts = append(pts, geom.Pt(x, y+3), geom.Pt(x+6, y+3+8), geom.Pt(y+3, x), geom.Pt(y+11, x+6))
		}
	}
	// Outside the field on every side, pairs in range of each other and
	// of the edge cells' nodes.
	for _, p := range []geom.Point{{X: -25, Y: 50}, {X: -15, Y: 50}, {X: -5, Y: 55}, {X: 105, Y: 40},
		{X: 115, Y: 40}, {X: 50, Y: -9}, {X: 50, Y: 109.5}, {X: -3, Y: -4}, {X: 1e6, Y: 1e6}} {
		pts = append(pts, p, geom.Pt(p.X+r, p.Y))
	}
	net, err := NewNetwork(pts, r, field)
	if err != nil {
		t.Fatal(err)
	}
	if n := requireGridExact(t, "fresh", net); n == 0 {
		t.Fatal("no pair sits at exactly the range; the construction lost its edge cases")
	}
	rng := rand.New(rand.NewPCG(5, 8))
	for step := 0; step < 20; step++ {
		moves := make([]Move, 6)
		for i := range moves {
			u := NodeID(rng.IntN(net.N()))
			p := net.Pos(u)
			switch rng.IntN(3) {
			case 0: // drift, possibly out of the field
				p = geom.Pt(p.X+rng.NormFloat64()*15, p.Y+rng.NormFloat64()*15)
			case 1: // onto another node's range circle
				q := net.Pos(NodeID(rng.IntN(net.N())))
				p = geom.Pt(q.X+r, q.Y)
			default: // anywhere around the field
				p = geom.Pt(rng.Float64()*140-20, rng.Float64()*140-20)
			}
			moves[i] = Move{Node: u, X: p.X, Y: p.Y}
		}
		if _, err := net.SetPositions(moves); err != nil {
			t.Fatal(err)
		}
		requireGridExact(t, "after moves", net)
	}
}
