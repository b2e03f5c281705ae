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
	// cur over prev→cur leaves over out[b], where b is the slot of the
	// back-edge cur→prev; rev[s] is the slot of the reverse of edge s.
	// Both out[b] and b lie in cur's row, so a row of out depends only on
	// that row's geometry and its neighbors' liveness. off holds the row
	// offsets the table was laid out against, and spare is the second
	// buffer position repair shifts clean rows into.
	out, rev, off, spare []int32
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
//   - shared: Holes and the node index, which derive allocates afresh,
//     and the reverse and offset tables, which only RepairMoved
//     replaces, wholesale;
//   - copied: the successor table and the per-node analyses, which a
//     repair writes in place;
//   - moved: the dirty marks and list, the kept walks and the orbit
//     labels, scratch only a repair reads;
//   - dropped: spare, the second successor buffer, which may still be
//     the table an earlier clone is being read through.
func (b *Boundaries) Clone(net *topo.Network) *Boundaries {
	c := *b
	c.net = net
	c.out, c.spare = slices.Clone(b.out), nil
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
		out:    make([]int32, net.AdjSlots()),
		rev:    make([]int32, net.AdjSlots()),
		off:    rowOffsets(net),
	}
	par.For(net.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			b.fillRow(topo.NodeID(u))
			b.fillRev(topo.NodeID(u), nil, nil)
			b.analyze(topo.NodeID(u))
		}
	})
	b.derive()
	return b
}

// rowOffsets returns a copy of the network's CSR row offsets (n+1
// entries).
func rowOffsets(net *topo.Network) []int32 {
	off := make([]int32, net.N()+1)
	for u := range off {
		off[u] = int32(net.AdjOffset(topo.NodeID(u)))
	}
	return off
}

// fillRow computes row u of the successor table: for the back-edge to
// each neighbor prev, the CW sweep at u from prev's bearing, excluding
// prev, bouncing back to prev at a dead end. That is prev's rotation
// predecessor, so each sweep starts one rotation position below prev.
func (b *Boundaries) fillRow(u topo.NodeID) {
	off := int32(b.net.AdjOffset(u))
	angs := b.net.AdjacencyAngles(u)
	rot := b.net.AdjacencyRotation(u)
	for r, j := range rot {
		b.out[off+j] = off + b.sweepCW(u, angs[j], r-1, len(rot)-1, j)
	}
}

// fillRev computes row u of the reverse-slot table. Rows are sorted
// ascending and the adjacency is symmetric, so u sits in each
// neighbor's row at its binary-search position. Given the table and
// the row offsets from before a move (RepairMoved), an edge between two
// rows the move left unchanged keeps that position and only shifts.
func (b *Boundaries) fillRev(u topo.NodeID, oldRev, oldOff []int32) {
	off := b.net.AdjOffset(u)
	for j, v := range b.net.AdjacencyRow(u) {
		if oldRev != nil && !b.mark[u] && !b.mark[v] {
			b.rev[off+j] = oldRev[int(oldOff[u])+j] - oldOff[v] + b.off[v]
			continue
		}
		k, _ := slices.BinarySearch(b.net.AdjacencyRow(v), u)
		b.rev[off+j] = int32(b.net.AdjOffset(v) + k)
	}
}

// analyze re-runs TENT at u and sweeps the first hop of each stuck
// interval: CW from the middle of the gap, the first neighbor hit is the
// gap's boundary node. The sweep starts at the last rotation position
// at or before the middle, found by binary search. The column is
// row-relative, so it survives a CSR shift of a row whose geometry did
// not change.
func (b *Boundaries) analyze(u topo.NodeID) {
	rec := &b.recs[u]
	rec.tent, rec.first = TentResult{}, rec.first[:0]
	if !b.net.Alive(u) {
		return
	}
	rec.tent = Tent(b.net, u)
	angs := b.net.AdjacencyAngles(u)
	rot := b.net.AdjacencyRotation(u)
	for _, iv := range rec.tent.Intervals {
		mid := iv.MidDirection()
		p, hi := 0, len(rot) // p: the first position past mid
		for p < hi {
			if m := int(uint(p+hi) >> 1); angs[rot[m]] > mid {
				hi = m
			} else {
				p = m + 1
			}
		}
		rec.first = append(rec.first, b.sweepCW(u, mid, p-1, len(rot), -1))
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
			s0 := b.off[u] + col
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
// (SetAlive leaves the CSR layout, and so rev, alone); the orbits are
// then re-derived. The resulting hole set is identical to FindHoles on
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
// is the geometric dirty set SetPositions returned: both the TENT
// analysis and a successor row read exactly their node's row geometry,
// so they are recomputed there and nowhere else.
func (b *Boundaries) RepairMoved(dirty []topo.NodeID) {
	b.mark = growClear(b.mark, b.net.N())
	for _, x := range dirty {
		b.mark[x] = true
	}
	// SetPositions moved the CSR slots: dirty rows are recomputed, clean
	// rows keep their successors shifted by their row's offset delta, and
	// the reverse slots are re-derived for every row. The reverse and
	// offset tables are replaced, never rewritten, so a Clone can share
	// them.
	slots := b.net.AdjSlots()
	oldOut, oldRev, oldOff := b.out, b.rev, b.off
	b.out = slices.Grow(b.spare[:0], slots)[:slots]
	b.rev = make([]int32, slots)
	b.off = rowOffsets(b.net)
	par.For(b.net.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if b.mark[u] {
				b.fillRow(topo.NodeID(u))
				b.analyze(topo.NodeID(u))
			} else {
				delta := b.off[u] - oldOff[u]
				for s := oldOff[u]; s < oldOff[u+1]; s++ {
					b.out[s+delta] = oldOut[s] + delta
				}
			}
			b.fillRev(topo.NodeID(u), oldRev, oldOff)
		}
	})
	b.spare = oldOut
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

// sweepCW returns the column of u's alive neighbor first reached
// rotating clockwise from the bearing `from`, or none when no neighbor
// qualifies. Deltas under 1e-12 count as a full turn, and among equal
// deltas the lowest column wins. It walks n rotation positions down
// from position p (cyclically), which must start at or below `from`:
// the clockwise rotation meets the columns in descending bearing order,
// so the deltas come non-decreasing (up to rounding at the 0/2π seam,
// which the stop margin absorbs) and the walk stops once the raw delta
// passes the best. A raw delta under 1e-12 comes out of order, but as
// a full turn it can beat only a best that no raw delta passes.
func (b *Boundaries) sweepCW(u topo.NodeID, from float64, p, n int, none int32) int32 {
	angs := b.net.AdjacencyAngles(u)
	row := b.net.AdjacencyRow(u)
	rot := b.net.AdjacencyRotation(u)
	best, bestDelta := none, geom.TwoPi+1
	for ; n > 0; n-- {
		if p < 0 {
			p += len(rot)
		}
		k := rot[p]
		p--
		if !b.net.Alive(row[k]) {
			continue
		}
		raw := cwDelta(from, angs[k])
		if raw > bestDelta+1e-9 {
			break
		}
		delta := raw
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta || (delta == bestDelta && k < best) {
			best, bestDelta = k, delta
		}
	}
	return best
}

// cwDelta is geom.CWDelta(from, to) for bearings in [0, 2π], whose
// difference needs no general reduction, so it inlines into the sweeps.
func cwDelta(from, to float64) float64 {
	d := from - to
	if d < 0 {
		d += geom.TwoPi
	} else if d >= geom.TwoPi {
		d = 0
	}
	return d
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
