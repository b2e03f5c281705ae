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
	w := witnesses{row: net.AdjacencyRow(u), up: net.Pos(u)}
	w.xs, w.ys = net.AdjacencyXY(u)
	if net.DeadCount() > 0 {
		w.alive = net.AliveBits()
	}
	for j := range w.row {
		keep[j] = w.isAlive(j) && w.keep(g.Kind, j)
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

// witnesses is a row as the witness tests read it: the static row of u,
// u's position, the packed row coordinates and, while any node is dead,
// the liveness bitset (nil otherwise).
type witnesses struct {
	row    []topo.NodeID
	up     geom.Point
	xs, ys []float64
	alive  []uint64
}

// isAlive reports whether the neighbor in column i is alive.
func (w *witnesses) isAlive(i int) bool {
	v := w.row[i]
	return w.alive == nil || w.alive[v>>6]&(1<<(uint(v)&63)) != 0
}

// keep applies the witness test to the edge from u to its column j. Any
// witness for the edge lies within range of both endpoints, so scanning
// u's alive neighbors suffices in a unit-disk graph.
func (w *witnesses) keep(k Kind, j int) bool {
	vp := geom.Pt(w.xs[j], w.ys[j])
	xs, ys := w.xs[:len(w.row)], w.ys[:len(w.row)]
	switch k {
	case GabrielGraph:
		mid := geom.Midpoint(w.up, vp)
		r2 := geom.Dist2(w.up, vp)/4 - 1e-12
		for i := range xs {
			if geom.Dist2(geom.Pt(xs[i], ys[i]), mid) < r2 && i != j && w.isAlive(i) {
				return false
			}
		}
		return true
	case RelativeNeighborhood:
		d2 := geom.Dist2(w.up, vp) - 1e-12
		for i := range xs {
			wp := geom.Pt(xs[i], ys[i])
			if geom.Dist2(wp, w.up) < d2 && geom.Dist2(wp, vp) < d2 && i != j && w.isAlive(i) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// Keeps reports whether the graph keeps the edge in CSR slot s.
func (g *Graph) Keeps(s int32) bool { return g.keep.At[s] }

// EdgeSlot returns the CSR slot of the edge from u to v when the graph
// keeps it, -1 otherwise.
func (g *Graph) EdgeSlot(u, v topo.NodeID) int32 {
	j, ok := slices.BinarySearch(g.Net.AdjacencyRow(u), v)
	if !ok || !g.keep.Row(u)[j] {
		return -1
	}
	return int32(g.Net.AdjOffset(u) + j)
}

// FaceStep advances one step of a face walk at u and returns the slot
// of the hop, the kept edge from u to the neighbor first met rotating
// from the bearing of the in-edge u→prev, counter-clockwise when ccw
// (the right-hand rule, which walks the face with the interior on the
// right; GPSR's perimeter mode) and clockwise otherwise (the left-hand
// rule). back is the slot of u→prev, kept or not: the reverse
// (topo.Network.AdjReverse) of the slot the packet arrived over, so a
// walk carries it from hop to hop. On entry back is -1 and the walk
// rotates from ref instead, e.g. the bearing toward the destination.
// The in-edge itself comes last, so a dead end bounces back. Returns -1
// when u keeps no edge.
func (g *Graph) FaceStep(u topo.NodeID, back int32, ref float64, ccw bool) int32 {
	net := g.Net
	off := int32(net.AdjOffset(u))
	if back >= 0 {
		ref = net.AdjacencyAngles(u)[back-off]
	}
	c := net.RotationStep(u, net.RotationSearch(u, ref), ref, ccw, g.keep.Row(u))
	if c < 0 {
		return -1
	}
	return off + c
}
