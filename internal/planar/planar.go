package planar

import (
	"slices"
	"sort"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
	"github.com/straightpath/wasn/internal/topo"
)

// Kind selects the planarization rule.
type Kind int

// Planarization kinds.
const (
	GabrielGraph Kind = iota + 1
	RelativeNeighborhood
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GabrielGraph:
		return "GG"
	case RelativeNeighborhood:
		return "RNG"
	default:
		return "planar(?)"
	}
}

// Graph is a planar subgraph of a network with adjacency sorted by angle,
// ready for face traversal.
type Graph struct {
	Net  *topo.Network
	Kind Kind
	// adj[u] lists u's planar neighbors sorted counter-clockwise by the
	// angle of the edge u->v; ang[u] holds those angles index-aligned,
	// so face steps rotate without recomputing atan2.
	adj [][]topo.NodeID
	ang [][]float64
	// Repair scratch reused across calls (repairs are serialized by the
	// caller): the touched marks and the expanded dirty-row id list.
	touched  []bool
	dirtyIDs []topo.NodeID
}

// Build computes the planar subgraph of net under rule k. Dead nodes are
// excluded. O(sum_u deg(u)^2). Every node's witness test and row sort
// are independent, so the build fans out across GOMAXPROCS.
func Build(net *topo.Network, k Kind) *Graph {
	g := &Graph{
		Net:  net,
		Kind: k,
		adj:  make([][]topo.NodeID, net.N()),
		ang:  make([][]float64, net.N()),
	}
	par.For(net.N(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.rebuildRow(topo.NodeID(i))
		}
	})
	return g
}

// Clone returns a copy of the graph over net, a topo.Network.Clone of
// g.Net, that Repair and RepairRows may mutate while others read the
// receiver, which must not be repaired afterwards. The rows are shared
// (a repair replaces a row wholesale), the row tables copied (a repair
// writes them in place), and the repair scratch moves to the clone.
func (g *Graph) Clone(net *topo.Network) *Graph {
	c := *g
	c.Net = net
	c.adj, c.ang = slices.Clone(g.adj), slices.Clone(g.ang)
	return &c
}

// rebuildRow recomputes u's planar adjacency from its current alive
// neighborhood — the per-node unit of work shared by Build and Repair.
// Dead nodes get empty rows.
func (g *Graph) rebuildRow(u topo.NodeID) {
	if !g.Net.Alive(u) {
		g.adj[u], g.ang[u] = nil, nil
		return
	}
	net := g.Net
	nbrs := net.Neighbors(u)
	var kept []topo.NodeID
	for _, v := range nbrs {
		if keepEdge(net, g.Kind, u, v, nbrs) {
			kept = append(kept, v)
		}
	}
	up := net.Pos(u)
	angles := make([]float64, len(kept))
	for j, v := range kept {
		angles[j] = geom.Angle(up, net.Pos(v))
	}
	sort.Sort(&byAngle{ids: kept, ang: angles})
	g.adj[u] = kept
	g.ang[u] = angles
}

// Repair recomputes the planar rows invalidated by the liveness changes
// of the given nodes (topo.Network.SetAlive already applied; failures
// and revivals both work). Both rules are witness-local: any witness
// for edge uv lies within range of u and of v, so the liveness of x can
// only affect rows of x itself and of x's static neighbors — those rows
// are rebuilt, every other row is provably unchanged. The result is
// identical to Build on the mutated network at O(|N(x)| · deg²) cost
// instead of O(n · deg²).
func (g *Graph) Repair(changed []topo.NodeID) {
	if len(g.touched) < g.Net.N() {
		g.touched = make([]bool, g.Net.N())
	} else {
		clear(g.touched)
	}
	touched := g.touched
	ids := g.dirtyIDs[:0]
	add := func(u topo.NodeID) {
		if !touched[u] {
			touched[u] = true
			ids = append(ids, u)
		}
	}
	for _, x := range changed {
		add(x)
		for _, v := range g.Net.AdjacencyRow(x) {
			add(v)
		}
	}
	g.dirtyIDs = ids
	par.For(len(ids), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.rebuildRow(ids[i])
		}
	})
}

// RepairRows rebuilds exactly the given planar rows after node positions
// changed (topo.Network.SetPositions already applied). Unlike Repair it
// does NOT expand the set: the geometric dirty set SetPositions returns
// is already neighborhood-closed — it contains every node whose own
// position, in-range set, or neighbor coordinates changed, and a planar
// row (witness tests included) reads only those inputs — so expanding
// again would rebuild rows that provably cannot have changed. The result
// is identical to Build on the moved network.
func (g *Graph) RepairRows(dirty []topo.NodeID) {
	par.For(len(dirty), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.rebuildRow(dirty[i])
		}
	})
}

// byAngle sorts a planar row and its angle cache together.
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

// keepEdge applies the witness test. Any witness for uv lies within range
// of both endpoints, so scanning N(u) suffices in a unit-disk graph.
func keepEdge(net *topo.Network, k Kind, u, v topo.NodeID, candidates []topo.NodeID) bool {
	up, vp := net.Pos(u), net.Pos(v)
	switch k {
	case GabrielGraph:
		mid := geom.Midpoint(up, vp)
		r2 := geom.Dist2(up, vp) / 4
		for _, w := range candidates {
			if w == v {
				continue
			}
			if geom.Dist2(net.Pos(w), mid) < r2-1e-12 {
				return false
			}
		}
		return true
	case RelativeNeighborhood:
		d2 := geom.Dist2(up, vp)
		for _, w := range candidates {
			if w == v {
				continue
			}
			wp := net.Pos(w)
			if geom.Dist2(wp, up) < d2-1e-12 && geom.Dist2(wp, vp) < d2-1e-12 {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Neighbors returns the planar neighbors of u in CCW angular order. The
// slice must not be modified.
func (g *Graph) Neighbors(u topo.NodeID) []topo.NodeID { return g.adj[u] }

// Degree returns the planar degree of u.
func (g *Graph) Degree(u topo.NodeID) int { return len(g.adj[u]) }

// EdgeCount returns the number of undirected planar edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, l := range g.adj {
		total += len(l)
	}
	return total / 2
}

// NextCCW returns the planar neighbor of u that follows the direction
// `fromAngle` counter-clockwise (strictly after, wrapping around). This is
// the GPSR right-hand-rule step: taking the next edge counter-clockwise
// from the in-edge walks the face with the interior on the right.
// Returns topo.NoNode when u has no planar neighbors.
func (g *Graph) NextCCW(u topo.NodeID, fromAngle float64) topo.NodeID {
	nbrs := g.adj[u]
	if len(nbrs) == 0 {
		return topo.NoNode
	}
	angs := g.ang[u]
	best := topo.NoNode
	bestDelta := geom.TwoPi + 1
	for j := range nbrs {
		delta := geom.CCWDelta(fromAngle, angs[j])
		if delta < 1e-12 {
			delta = geom.TwoPi // the in-edge itself sorts last
		}
		if delta < bestDelta {
			bestDelta = delta
			best = nbrs[j]
		}
	}
	return best
}

// HasEdge reports whether uv is a planar edge.
func (g *Graph) HasEdge(u, v topo.NodeID) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// NextCW mirrors NextCCW: the planar neighbor first reached rotating
// clockwise from fromAngle — the left-hand-rule step.
func (g *Graph) NextCW(u topo.NodeID, fromAngle float64) topo.NodeID {
	nbrs := g.adj[u]
	if len(nbrs) == 0 {
		return topo.NoNode
	}
	angs := g.ang[u]
	best := topo.NoNode
	bestDelta := geom.TwoPi + 1
	for j := range nbrs {
		delta := geom.CWDelta(fromAngle, angs[j])
		if delta < 1e-12 {
			delta = geom.TwoPi // the in-edge itself sorts last
		}
		if delta < bestDelta {
			bestDelta = delta
			best = nbrs[j]
		}
	}
	return best
}

// FaceStep advances one right-hand-rule step of a face walk: the packet
// sits at u having arrived from prev (prev == topo.NoNode on entry, in
// which case refAngle seeds the sweep, e.g. the direction toward the
// destination).
func (g *Graph) FaceStep(u, prev topo.NodeID, refAngle float64) topo.NodeID {
	return g.FaceStepHand(u, prev, refAngle, true)
}

// FaceStepHand generalizes FaceStep to both hands: ccw=true walks with
// the right-hand rule (counter-clockwise sweep), ccw=false with the
// left-hand rule.
func (g *Graph) FaceStepHand(u, prev topo.NodeID, refAngle float64, ccw bool) topo.NodeID {
	if prev != topo.NoNode {
		// The in-edge u->prev is planar whenever prev came from a face
		// walk, so its bearing is usually a cache lookup.
		if a, ok := g.angleTo(u, prev); ok {
			refAngle = a
		} else {
			refAngle = geom.Angle(g.Net.Pos(u), g.Net.Pos(prev))
		}
	}
	if ccw {
		return g.NextCCW(u, refAngle)
	}
	return g.NextCW(u, refAngle)
}

// angleTo returns the cached bearing of planar edge u->v, if present.
func (g *Graph) angleTo(u, v topo.NodeID) (float64, bool) {
	for j, w := range g.adj[u] {
		if w == v {
			return g.ang[u][j], true
		}
	}
	return 0, false
}
