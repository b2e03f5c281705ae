package topo

import (
	"math/rand/v2"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

// scanStep is the row-scan oracle of RotationStep: the qualifying
// column with the smallest delta, deltas under 1e-12 counting as a
// full turn, the lowest column winning a tie.
func scanStep(net *Network, u NodeID, from float64, ccw bool, keep []bool) int32 {
	best, bestDelta := int32(-1), geom.TwoPi+1
	angs := net.AdjacencyAngles(u)
	for j, v := range net.AdjacencyRow(u) {
		if keep != nil && !keep[j] || !net.Alive(v) {
			continue
		}
		delta := geom.CWDelta(from, angs[j])
		if ccw {
			delta = geom.CCWDelta(from, angs[j])
		}
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta {
			best, bestDelta = int32(j), delta
		}
	}
	return best
}

// TestRotationStepMatchesRowScan pins RotationStep, both hands, to the
// row scan on a lattice full of exact bearing ties (collinear and
// coincident neighbors), rounding-level ones (nodes nudged by 1e-14)
// and both ends of the seam, with dead nodes, random row masks (every
// mask on short rows) and each with every column masked out in turn,
// as BOUNDHOLE masks its back-edge: from every neighbor's bearing,
// between them and at the seam, starting from every position that
// splits the rotation at the bearing, the one RotationSearch finds
// among them.
func TestRotationStepMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	var pts []geom.Point
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			p := geom.Pt(float64(10*i), float64(10*j))
			if rng.IntN(4) == 0 {
				p.X += 1e-14
			}
			pts = append(pts, p)
		}
	}
	// Coincident pairs, and beside (70, 0) two neighbors at bearing 0
	// and at a bearing that rounds to exactly 2π.
	pts = append(pts, pts[27], pts[36], geom.Pt(80, 0), geom.Pt(80, -1e-20))
	net, err := NewNetwork(pts, 25, geom.FromCorners(geom.Pt(0, 0), geom.Pt(70, 70)))
	if err != nil {
		t.Fatal(err)
	}
	for u := range 64 {
		if u != 56 && rng.IntN(6) == 0 { // (70, 0) and the seam pair stay alive
			net.SetAlive(NodeID(u), false)
		}
	}
	for i := range net.Nodes {
		u := NodeID(i)
		angs, rot := net.AdjacencyAngles(u), net.AdjacencyRotation(u)
		froms := []float64{0, geom.TwoPi - 1e-15, 1e-13, rng.Float64() * geom.TwoPi}
		for p, j := range rot {
			next := angs[rot[(p+1)%len(rot)]]
			if p == len(rot)-1 {
				next += geom.TwoPi
			}
			froms = append(froms, angs[j], geom.NormAngle((angs[j]+next)/2))
		}
		random := make([]bool, len(rot))
		for j := range random {
			random[j] = rng.IntN(3) > 0
		}
		masks := [][]bool{nil, random}
		if len(rot) <= 10 {
			// Short rows (the lattice's corners, the seam's node) try
			// every mask of the row.
			for bits := 0; bits < 1<<len(rot); bits++ {
				m := make([]bool, len(rot))
				for j := range rot {
					m[j] = bits>>j&1 == 1
				}
				masks = append(masks, m)
			}
		}
		for _, m := range masks[:2] {
			for j := range rot {
				masked := make([]bool, len(rot))
				for k := range masked {
					masked[k] = k != j && (m == nil || m[k])
				}
				masks = append(masks, masked)
			}
		}
		for _, ccw := range []bool{true, false} {
			for _, from := range froms {
				search := net.RotationSearch(u, from)
				for p := 0; p <= len(rot); p++ {
					if p > 0 && angs[rot[p-1]] > from || p < len(rot) && angs[rot[p]] < from {
						if p == search {
							t.Fatalf("node %d: RotationSearch(%v) = %d does not split the rotation", u, from, p)
						}
						continue
					}
					if p < search {
						t.Fatalf("node %d: RotationSearch(%v) = %d, but %d splits the rotation", u, from, search, p)
					}
					for _, mask := range masks {
						if got, want := net.RotationStep(u, p, from, ccw, mask), scanStep(net, u, from, ccw, mask); got != want {
							t.Fatalf("node %d from %v at position %d (ccw %v, masked %v): column %d; row scan %d",
								u, from, p, ccw, mask != nil, got, want)
						}
					}
				}
			}
		}
	}
}
