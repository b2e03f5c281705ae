package planar

import (
	"slices"

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

// Graph is a planar subgraph of a network: a keep-mask over the
// network's CSR edge slots. Face steps walk the network's rotation
// (topo.Network.RotationStep) over the kept slots.
type Graph struct {
	Net  *topo.Network
	Kind Kind
	// keep.At[s] reports whether the edge in slot s survives the rule;
	// rows of dead nodes and slots of dead neighbors keep nothing.
	keep topo.SlotTable[bool]
	// Repair scratch reused across calls (repairs are serialized by the
	// caller): the touched marks and the expanded dirty-row id list.
	touched  []bool
	dirtyIDs []topo.NodeID
}

// Build computes the planar subgraph of net under rule k. Dead nodes are
// excluded. O(sum_u deg(u)^2). Every node's witness tests are
// independent, so the build fans out across GOMAXPROCS.
func Build(net *topo.Network, k Kind) *Graph {
	g := &Graph{Net: net, Kind: k, keep: topo.NewSlotTable[bool](net)}
	par.For(net.N(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g.rebuildRow(topo.NodeID(i))
		}
	})
	return g
}

// Clone returns a copy of the graph over net, a topo.Network.Clone of
// g.Net, that Repair and RepairRows may mutate while others read the
// receiver, which must not be repaired afterwards. The mask is copied
// (a repair writes it in place) and the repair scratch moves to the
// clone.
func (g *Graph) Clone(net *topo.Network) *Graph {
	c := *g
	c.Net = net
	c.keep = g.keep.Clone()
	return &c
}

// rebuildRow recomputes u's mask row from its current alive
// neighborhood — the per-node unit of work shared by Build and the
// repairs.
func (g *Graph) rebuildRow(u topo.NodeID) {
	net := g.Net
	keep := g.keep.Row(u)
	if !net.Alive(u) {
		clear(keep)
		return
	}
	nbrs := net.Neighbors(u)
	for j, v := range net.AdjacencyRow(u) {
		keep[j] = net.Alive(v) && keepEdge(net, g.Kind, u, v, nbrs)
	}
}

// Repair recomputes the mask rows invalidated by the liveness changes
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
	g.rebuildRows(ids)
}

// RepairRows repairs the mask after node positions changed
// (topo.Network.SetPositions already applied): dirty is the geometric
// dirty set SetPositions returned, sorted. The mask follows the CSR to its new
// layout, clean rows shifted verbatim, and exactly the dirty rows are
// rebuilt. Unlike Repair it does NOT expand the set: the dirty set is
// already neighborhood-closed — it contains every node whose own
// position, in-range set, or neighbor coordinates changed, and a mask
// row (witness tests included) reads only those inputs. The result is
// identical to Build on the moved network.
func (g *Graph) RepairRows(dirty []topo.NodeID) {
	g.keep.Relayout(g.Net, dirty)
	g.rebuildRows(dirty)
}

// rebuildRows rebuilds the given rows in parallel across GOMAXPROCS.
func (g *Graph) rebuildRows(ids []topo.NodeID) {
	par.For(len(ids), func(lo, hi int) {
		for _, u := range ids[lo:hi] {
			g.rebuildRow(u)
		}
	})
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

// HasEdge reports whether uv is a kept edge.
func (g *Graph) HasEdge(u, v topo.NodeID) bool {
	j, ok := slices.BinarySearch(g.Net.AdjacencyRow(u), v)
	return ok && g.keep.Row(u)[j]
}

// FaceStep advances one step of a face walk at u: the kept neighbor
// first met rotating from the bearing of the in-edge u→prev,
// counter-clockwise when ccw (the right-hand rule, which walks the face
// with the interior on the right; GPSR's perimeter mode) and clockwise
// otherwise (the left-hand rule). prev is the neighbor of u the packet
// arrived from, kept or not; on entry, prev == topo.NoNode and the walk
// rotates from ref instead, e.g. the bearing toward the destination.
// The in-edge itself comes last, so a dead end bounces back. Returns
// topo.NoNode when u keeps no edge.
func (g *Graph) FaceStep(u, prev topo.NodeID, ref float64, ccw bool) topo.NodeID {
	if prev != topo.NoNode {
		j, _ := slices.BinarySearch(g.Net.AdjacencyRow(u), prev)
		ref = g.Net.AdjacencyAngles(u)[j]
	}
	c := g.Net.RotationStep(u, ref, ccw, -1, g.keep.At)
	if c < 0 {
		return topo.NoNode
	}
	return g.Net.AdjacencyRow(u)[c]
}
