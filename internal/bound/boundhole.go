package bound

import (
	"math"
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
	"github.com/straightpath/wasn/internal/topo"
)

// Hole is the closed boundary of one routing hole: a cycle of nodes.
type Hole struct {
	ID int
	// Cycle lists the boundary nodes in traversal order; the last node
	// connects back to the first.
	Cycle []topo.NodeID
	// BBox bounds the boundary nodes.
	BBox geom.Rect
}

// Len returns the number of boundary nodes.
func (h *Hole) Len() int { return len(h.Cycle) }

// indexOf returns the position of u on the cycle, or -1.
func (h *Hole) indexOf(u topo.NodeID) int {
	for i, v := range h.Cycle {
		if v == u {
			return i
		}
	}
	return -1
}

// Boundaries is the output of BOUNDHOLE on a network: every hole found
// plus a node→holes index, the "boundary information" that §5 constructs
// for GF routing. It also retains the per-node TENT analysis, the
// successor table and its orbit labels, from which Repair re-derives the
// holes after a topology change.
type Boundaries struct {
	Holes []*Hole
	// holeOff/holeIdx index the holes by boundary node (see derive).
	holeOff []int32
	holeIdx []*Hole
	// MessageCount estimates construction traffic: one message per
	// traversal step, the cost model used when comparing against the
	// safety-information construction. After a Repair it equals what a
	// from-scratch run on the mutated network would report.
	MessageCount int

	// The network the boundaries were traced on, the boundary length
	// cap, and per node the TENT result plus the first hop of each
	// stuck interval's walk.
	net    *topo.Network
	maxLen int
	recs   []nodeRec
	// Successor table, indexed by CSR edge slot. A walk that arrived at
	// cur over prev→cur leaves over slot b+out.At[b], where b is the slot
	// of the back-edge cur→prev, the network's reverse slot of prev→cur
	// (see next): out.At[b] is the successor's column less b's, so it
	// survives a CSR shift of the row. A row of out depends only on that
	// row's geometry and its neighbors' liveness.
	out topo.SlotTable[int32]
	// σ's orbit labels and the dedup claims, rebuilt by every derive.
	orbits
	// Scratch reused across calls (repairs are serialized by the
	// caller): the dirty-node marks and list, and derive's kept walks.
	mark  []bool
	dirty []topo.NodeID
	kept  []walk
}

// walk is a closed BOUNDHOLE walk: n darts from t0, leaving over slot s0.
type walk struct {
	t0 topo.NodeID
	s0 int32
	n  int
}

// nodeRec is the stuck analysis of one node: its TENT result and, per
// stuck interval, the column of the walk's first hop in the node's row
// (-1 when the gap has no way in). Dead and never-stuck nodes have no
// first hops.
type nodeRec struct {
	tent  TentResult
	first []int32
}

// Clone returns a copy of the boundaries over net, a topo.Network.Clone
// of the network they were traced on, that Repair and RepairMoved may
// mutate while other goroutines keep reading the receiver. The receiver
// must not be repaired afterwards. Ownership of its parts:
//
//   - shared: Holes and the node index, which derive allocates afresh;
//   - copied: the successor table (topo.SlotTable.Clone) and the
//     per-node analyses, which a repair writes in place;
//   - moved: the dirty marks and list, the kept walks and the orbit
//     labels, scratch only a repair reads.
func (b *Boundaries) Clone(net *topo.Network) *Boundaries {
	c := *b
	c.net = net
	c.out = b.out.Clone()
	c.recs = slices.Clone(b.recs)
	// analyze appends into a record's first hops: give each its own span.
	var total int
	for _, r := range b.recs {
		total += len(r.first)
	}
	firsts := make([]int32, 0, total)
	for i, r := range b.recs {
		start := len(firsts)
		firsts = append(firsts, r.first...)
		c.recs[i].first = firsts[start:len(firsts):len(firsts)]
	}
	return &c
}

// HolesAt returns the holes whose boundary contains u (empty if none).
func (b *Boundaries) HolesAt(u topo.NodeID) []*Hole {
	return b.holeIdx[b.holeOff[u]:b.holeOff[u+1]:b.holeOff[u+1]]
}

// boundaryLenCap bounds the length of a kept boundary. Boundaries longer
// than this are walk artifacts, not hole rims: a genuine hole boundary
// cannot involve more than a fraction of the network. They would only
// mislead detours, so they are dropped.
func boundaryLenCap(net *topo.Network) int { return max(net.N()/4, 16) }

// FindHoles runs the TENT rule and then BOUNDHOLE from every stuck
// direction, deduplicating holes that share boundary edges.
//
// Simplification vs. the original protocol: the original refines the
// boundary when a newly added edge crosses an earlier one; this
// implementation instead cuts the cycle at the first revisited directed
// edge, which yields the same closed boundary on the unit-disk graphs used
// here (the refinement only matters under lossy/asymmetric links).
//
// The returned Boundaries retain the TENT analysis and the successor
// table, so a later Repair re-analyzes only the changed neighborhood.
func FindHoles(net *topo.Network) *Boundaries {
	b := &Boundaries{
		net:    net,
		maxLen: boundaryLenCap(net),
		recs:   make([]nodeRec, net.N()),
		out:    topo.NewSlotTable[int32](net),
	}
	par.For(net.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			b.fillRow(topo.NodeID(u))
			b.analyze(topo.NodeID(u))
		}
	})
	b.derive()
	return b
}

// fillRow computes row u of the successor table in rotation order: for
// the back-edge to each neighbor prev, the CW sweep at u from prev's
// bearing, started at prev's own rotation position with prev masked
// out, bouncing back to prev at a dead end.
func (b *Boundaries) fillRow(u topo.NodeID) {
	out := b.out.Row(u)
	angs := b.net.AdjacencyAngles(u)
	var buf [128]bool
	keep := buf[:0]
	if len(angs) > len(buf) {
		keep = make([]bool, 0, len(angs))
	}
	keep = keep[:len(angs)]
	for j := range keep {
		keep[j] = true
	}
	for p, j := range b.net.AdjacencyRotation(u) {
		keep[j] = false
		out[j] = 0
		if c := b.net.RotationStep(u, p, angs[j], false, keep); c >= 0 {
			out[j] = c - j
		}
		keep[j] = true
	}
}

// next returns σ(s), the dart a walk that arrived over s leaves over:
// the successor of the back-edge, the reverse of s.
func (b *Boundaries) next(s int32) int32 {
	r := b.net.AdjReverse(s)
	return r + b.out.At[r]
}

// analyze re-runs TENT at u and sweeps the first hop of each stuck
// interval: CW from the middle of the gap, starting where TENT found
// that bearing falls in the rotation, the first neighbor hit is the
// gap's boundary node. The column is row-relative, so it survives a CSR
// shift of a row whose geometry did not change.
func (b *Boundaries) analyze(u topo.NodeID) {
	rec := &b.recs[u]
	rec.tent, rec.first = TentResult{}, rec.first[:0]
	if !b.net.Alive(u) {
		return
	}
	// first holds the rotation positions until each is swept.
	rec.tent, rec.first = tent(b.net, u, rec.first)
	for k, iv := range rec.tent.Intervals {
		rec.first[k] = b.net.RotationStep(u, int(rec.first[k]), iv.MidDirection(), false, nil)
	}
}

// derive labels the successor table's orbits and rebuilds Holes, the
// node index and MessageCount from them in the discovery order of the
// protocol: nodes ascending, intervals in TENT order, the first claim of
// a directed edge wins. Every walk that closes into a cycle of at least
// three nodes is counted and claims its edges, kept or not — a walk
// that shares an edge with ANY earlier walk re-found the same hole from
// another stuck direction, and claiming a dropped duplicate's edges too
// keeps a third walk of that hole from surfacing as a phantom. Only
// kept holes materialize their cycle, all into one fresh array.
func (b *Boundaries) derive() {
	b.label()
	b.MessageCount = 0
	kept, total := b.kept[:0], 0
	for i := range b.recs {
		u := topo.NodeID(i)
		for _, col := range b.recs[i].first {
			if col < 0 {
				continue
			}
			s0 := int32(b.net.AdjOffset(u)) + col
			n := b.walkLen(u, s0)
			if n < 3 {
				continue
			}
			b.MessageCount += n
			if !b.claim(s0, n) {
				kept, total = append(kept, walk{u, s0, n}), total+n
			}
		}
	}
	b.kept = kept
	holes := make([]Hole, len(kept))
	nodes := make([]topo.NodeID, 0, total)
	holeOff := make([]int32, b.net.N()+1)
	b.Holes = make([]*Hole, len(kept))
	for k, w := range kept {
		start := len(nodes)
		nodes = b.appendCycle(nodes, w.t0, w.s0, w.n)
		cycle := nodes[start:len(nodes):len(nodes)]
		holes[k] = Hole{ID: k, Cycle: cycle, BBox: cycleBBox(b.net, cycle)}
		b.Holes[k] = &holes[k]
		for _, v := range cycle {
			holeOff[v+1]++
		}
	}
	// The node index is CSR too: HolesAt(v) is holeIdx[holeOff[v]:
	// holeOff[v+1]], in hole id order.
	for v := range b.net.N() {
		holeOff[v+1] += holeOff[v]
	}
	holeIdx := make([]*Hole, total)
	for _, h := range b.Holes {
		for _, v := range h.Cycle {
			holeIdx[holeOff[v]] = h
			holeOff[v]++
		}
	}
	copy(holeOff[1:], holeOff)
	holeOff[0] = 0
	b.holeOff, b.holeIdx = holeOff, holeIdx
}

// Repair incrementally re-derives the boundaries after the liveness of
// the given nodes changed (topo.Network.SetAlive already applied; both
// failures and revivals are handled). A changed node alters the sweeps
// and the TENT analysis only at itself and its static neighbors, so
// exactly those successor rows and stuck analyses are recomputed
// (SetAlive leaves the CSR layout alone); the orbits are then
// re-derived. The resulting hole set is identical to FindHoles on
// the mutated network.
func (b *Boundaries) Repair(changed []topo.NodeID) {
	b.mark = growClear(b.mark, b.net.N())
	dirty := b.dirty[:0]
	add := func(u topo.NodeID) {
		if !b.mark[u] {
			b.mark[u] = true
			dirty = append(dirty, u)
		}
	}
	for _, x := range changed {
		add(x)
		for _, v := range b.net.AdjacencyRow(x) {
			add(v)
		}
	}
	b.dirty = dirty
	par.For(len(dirty), func(lo, hi int) {
		for _, u := range dirty[lo:hi] {
			b.fillRow(u)
			b.analyze(u)
		}
	})
	b.derive()
}

// RepairMoved incrementally re-derives the boundaries after node
// positions changed (topo.Network.SetPositions already applied). dirty
// is the geometric dirty set SetPositions returned, sorted: both the TENT
// analysis and a successor row read exactly their node's row geometry,
// so the successor table follows the CSR to its new layout, clean rows
// shifted verbatim, and only the dirty nodes are recomputed.
func (b *Boundaries) RepairMoved(dirty []topo.NodeID) {
	b.out.Relayout(b.net, dirty)
	par.For(len(dirty), func(lo, hi int) {
		for _, u := range dirty[lo:hi] {
			b.fillRow(u)
			b.analyze(u)
		}
	})
	b.derive()
}

// growClear returns buf grown to at least n and cleared.
func growClear[T any](buf []T, n int) []T {
	if len(buf) < n {
		return make([]T, n)
	}
	clear(buf)
	return buf
}

func cycleBBox(net *topo.Network, cycle []topo.NodeID) geom.Rect {
	p := net.Pos(cycle[0])
	bb := geom.Rect{Min: p, Max: p}
	for _, v := range cycle[1:] {
		p := net.Pos(v)
		bb.Min.X, bb.Min.Y = math.Min(bb.Min.X, p.X), math.Min(bb.Min.Y, p.Y)
		bb.Max.X, bb.Max.Y = math.Max(bb.Max.X, p.X), math.Max(bb.Max.Y, p.Y)
	}
	return bb
}

// FollowBoundary returns the boundary successor of u on hole h moving in
// the given direction (+1 = cycle order, -1 = reverse). ok is false when u
// is not on the boundary.
func FollowBoundary(h *Hole, u topo.NodeID, dir int) (topo.NodeID, bool) {
	i := h.indexOf(u)
	if i < 0 || len(h.Cycle) == 0 {
		return topo.NoNode, false
	}
	n := len(h.Cycle)
	if dir >= 0 {
		return h.Cycle[(i+1)%n], true
	}
	return h.Cycle[(i-1+n)%n], true
}
