package planar

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// sortedRows is the oracle of the mask face step: the planar graph as
// per-node rows of kept neighbors sorted counter-clockwise by bearing,
// with the bearings index aligned, built from the witness test directly,
// and the linear NextCCW/NextCW scans over them.
type sortedRows struct {
	adj [][]topo.NodeID
	ang [][]float64
}

// buildSortedRows computes the sorted rows of net's planar subgraph
// under rule k. Dead nodes get empty rows.
func buildSortedRows(net *topo.Network, k Kind) *sortedRows {
	r := &sortedRows{adj: make([][]topo.NodeID, net.N()), ang: make([][]float64, net.N())}
	for i := range net.N() {
		u := topo.NodeID(i)
		if !net.Alive(u) {
			continue
		}
		nbrs := net.Neighbors(u)
		var kept []topo.NodeID
		for _, v := range nbrs {
			if keepEdge(net, k, u, v, nbrs) {
				kept = append(kept, v)
			}
		}
		angles := make([]float64, len(kept))
		for j, v := range kept {
			angles[j] = geom.Angle(net.Pos(u), net.Pos(v))
		}
		sort.Sort(&byAngle{ids: kept, ang: angles})
		r.adj[u], r.ang[u] = kept, angles
	}
	return r
}

// byAngle sorts a row and its bearings together.
type byAngle struct {
	ids []topo.NodeID
	ang []float64
}

func (s *byAngle) Len() int           { return len(s.ids) }
func (s *byAngle) Less(i, j int) bool { return s.ang[i] < s.ang[j] }
func (s *byAngle) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.ang[i], s.ang[j] = s.ang[j], s.ang[i]
}

// nextCCW returns the row neighbor of u first met rotating
// counter-clockwise from `from`, strictly after it; the first in row
// order wins a tie.
func (r *sortedRows) nextCCW(u topo.NodeID, from float64) topo.NodeID {
	best, bestDelta := topo.NoNode, geom.TwoPi+1
	for j, v := range r.adj[u] {
		delta := geom.CCWDelta(from, r.ang[u][j])
		if delta < 1e-12 {
			delta = geom.TwoPi // the in-edge itself sorts last
		}
		if delta < bestDelta {
			best, bestDelta = v, delta
		}
	}
	return best
}

// nextCW mirrors nextCCW clockwise.
func (r *sortedRows) nextCW(u topo.NodeID, from float64) topo.NodeID {
	best, bestDelta := topo.NoNode, geom.TwoPi+1
	for j, v := range r.adj[u] {
		delta := geom.CWDelta(from, r.ang[u][j])
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta {
			best, bestDelta = v, delta
		}
	}
	return best
}

// faceStep is the row-scan face step: from the cached bearing of the
// in-edge when it is a row edge, its computed bearing otherwise, or
// from ref on entry.
func (r *sortedRows) faceStep(net *topo.Network, u, prev topo.NodeID, ref float64, ccw bool) topo.NodeID {
	if prev != topo.NoNode {
		ref = geom.Angle(net.Pos(u), net.Pos(prev))
		if j := slices.Index(r.adj[u], prev); j >= 0 {
			ref = r.ang[u][j]
		}
	}
	if ccw {
		return r.nextCCW(u, ref)
	}
	return r.nextCW(u, ref)
}

// requireSortedRows checks g against the sorted rows built fresh on its
// network: every node's kept edges, then the face step of both hands
// from every in-edge (kept or not) and from entry bearings at every
// neighbor's bearing, halfway between rotation neighbors and at the
// seam.
func requireSortedRows(t *testing.T, label string, g *Graph) {
	t.Helper()
	net := g.Net
	want := buildSortedRows(net, g.Kind)
	for i := range net.N() {
		u := topo.NodeID(i)
		got := neighbors(g, u)
		w := slices.Clone(want.adj[u])
		slices.Sort(w)
		if !slices.Equal(got, w) {
			t.Fatalf("%s: %v row %d keeps %v; oracle %v", label, g.Kind, u, got, w)
		}
		angs, rot := net.AdjacencyAngles(u), net.AdjacencyRotation(u)
		refs := []float64{0, geom.TwoPi - 1e-15, 1}
		for p, j := range rot {
			next := angs[rot[(p+1)%len(rot)]]
			if p == len(rot)-1 {
				next += geom.TwoPi
			}
			refs = append(refs, angs[j], geom.NormAngle((angs[j]+next)/2))
		}
		for _, ccw := range []bool{true, false} {
			for _, ref := range refs {
				if got, w := g.FaceStep(u, topo.NoNode, ref, ccw), want.faceStep(net, u, topo.NoNode, ref, ccw); got != w {
					t.Fatalf("%s: %v entry step at %d from %v (ccw %v) = %d; oracle %d", label, g.Kind, u, ref, ccw, got, w)
				}
			}
			for _, prev := range net.AdjacencyRow(u) {
				if got, w := g.FaceStep(u, prev, 0, ccw), want.faceStep(net, u, prev, 0, ccw); got != w {
					t.Fatalf("%s: %v step at %d from %d (ccw %v) = %d; oracle %d", label, g.Kind, u, prev, ccw, got, w)
				}
			}
		}
	}
}

// TestFaceStepMatchesSortedRows pins the mask face step, for both rules,
// to the sorted-row scans it replaced on IA-, FA- and OB-800-42: fresh,
// then after every step of a fail/revive/move sequence repaired through
// Repair and RepairRows, and through moves that clamp OB-300-5's left
// strip onto the field edge, where neighbors share exact bearings.
func TestFaceStepMatchesSortedRows(t *testing.T) {
	kinds := []Kind{GabrielGraph, RelativeNeighborhood}
	for _, model := range []topo.DeployModel{topo.ModelIA, topo.ModelFA, topo.ModelOB} {
		t.Run(model.String(), func(t *testing.T) {
			net := deployed(t, model, 800, 42)
			var gs []*Graph
			for _, k := range kinds {
				gs = append(gs, Build(net, k))
				requireSortedRows(t, "fresh", gs[len(gs)-1])
			}
			rng := rand.New(rand.NewPCG(42, 0xface))
			var dead []topo.NodeID
			for step := range 9 {
				kind := []string{"fail", "revive", "move"}[step%3]
				switch kind {
				case "fail":
					var changed []topo.NodeID
					for len(changed) < 5 {
						if u := topo.NodeID(rng.IntN(net.N())); net.Alive(u) {
							net.SetAlive(u, false)
							changed = append(changed, u)
						}
					}
					dead = append(dead, changed...)
					for _, g := range gs {
						g.Repair(changed)
					}
				case "revive":
					changed := dead[:len(dead)/2]
					for _, u := range changed {
						net.SetAlive(u, true)
					}
					for _, g := range gs {
						g.Repair(changed)
					}
					dead = slices.Clone(dead[len(dead)/2:])
				default:
					moves := make([]topo.Move, 8)
					for i, u := range rng.Perm(net.N())[:len(moves)] {
						p := net.Pos(topo.NodeID(u))
						moves[i] = topo.Move{Node: topo.NodeID(u),
							X: min(max(p.X+rng.NormFloat64()*6, net.Field.Min.X), net.Field.Max.X),
							Y: min(max(p.Y+rng.NormFloat64()*6, net.Field.Min.Y), net.Field.Max.Y)}
					}
					dirty, err := net.SetPositions(moves)
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range gs {
						g.RepairRows(dirty)
					}
				}
				for _, g := range gs {
					requireSortedRows(t, kind, g)
				}
			}
		})
	}
	t.Run("edge-ties", func(t *testing.T) {
		net := deployed(t, topo.ModelOB, 300, 5)
		g := Build(net, GabrielGraph)
		var strip []topo.NodeID
		for u := range net.Nodes {
			if net.Pos(topo.NodeID(u)).X < net.Field.Min.X+30 {
				strip = append(strip, topo.NodeID(u))
			}
		}
		for len(strip) > 0 {
			k := min(4, len(strip))
			moves := make([]topo.Move, k)
			for i, u := range strip[:k] {
				moves[i] = topo.Move{Node: u, X: max(net.Pos(u).X-40, net.Field.Min.X), Y: net.Pos(u).Y}
			}
			strip = strip[k:]
			dirty, err := net.SetPositions(moves)
			if err != nil {
				t.Fatal(err)
			}
			g.RepairRows(dirty)
			requireSortedRows(t, "edge move", g)
		}
	})
}
