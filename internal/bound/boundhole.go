package bound

import (
	"slices"
	"sync"

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

	// The network the boundaries were traced on and the boundary
	// length cap.
	net    *topo.Network
	maxLen int
	// The stuck analysis of every node, flat: node u's TENT intervals
	// are ivs[stuckOff[u]:stuckOff[u+1]], and first[k] is the column in
	// u's row of the first hop of ivs[k]'s walk (-1 when the gap has no
	// way in). Dead and never-stuck nodes have none. A repair lays all
	// three out afresh (see analyzeRows), never in place.
	stuckOff []int32
	ivs      []StuckInterval
	first    []int32
	// Successor table, indexed by CSR edge slot. A walk that arrived at
	// cur over prev→cur leaves over slot b+out.At[b], where b is the slot
	// of the back-edge cur→prev, the network's reverse slot of prev→cur
	// (orbits.sig holds the result per slot): out.At[b] is the
	// successor's column less b's, so it survives a CSR shift of the
	// row. A row of out depends only on that row's geometry and its
	// neighbors' liveness.
	out topo.SlotTable[int32]
	// σ's orbit labels and the dedup claims, rebuilt by every derive.
	orbits
	// Scratch reused across calls (repairs are serialized by the
	// caller): the dirty-node marks and list, the per-dirty-node
	// interval counts of analyzeRows, and derive's kept walks.
	mark  []bool
	dirty []topo.NodeID
	count []int32
	kept  []walk
}

// walk is a closed BOUNDHOLE walk: n darts from t0, leaving over slot s0.
type walk struct {
	t0 topo.NodeID
	s0 int32
	n  int
}

// Clone returns a copy of the boundaries over net, a topo.Network.Clone
// of the network they were traced on, that Repair and RepairMoved may
// mutate while other goroutines keep reading the receiver. The receiver
// must not be repaired afterwards. Ownership of its parts:
//
//   - shared: Holes, the node index and the stuck analysis, which a
//     repair replaces rather than writes;
//   - copied: the successor table (topo.SlotTable.Clone), which a
//     repair writes in place;
//   - moved: the dirty marks and list, the kept walks and the orbit
//     labels, scratch only a repair reads.
func (b *Boundaries) Clone(net *topo.Network) *Boundaries {
	c := *b
	c.net = net
	c.out = b.out.Clone()
	return &c
}

// firstHops returns the first-hop column of each of u's stuck intervals.
func (b *Boundaries) firstHops(u topo.NodeID) []int32 {
	return b.first[b.stuckOff[u]:b.stuckOff[u+1]]
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
		net:      net,
		maxLen:   boundaryLenCap(net),
		stuckOff: make([]int32, net.N()+1),
		out:      topo.NewSlotTable[int32](net),
	}
	all := make([]topo.NodeID, net.N())
	for u := range all {
		all[u] = topo.NodeID(u)
	}
	b.analyzeRows(all)
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

// analyze appends u's TENT intervals to ivs and the first hop of each
// to first, which must be as long: the sweep CW from the middle of the
// gap, starting where TENT found that bearing falls in the rotation,
// whose first neighbor hit is the gap's boundary node. The column is
// row-relative, so it survives a CSR shift of a row whose geometry did
// not change.
func (b *Boundaries) analyze(u topo.NodeID, ivs []StuckInterval, first []int32) ([]StuckInterval, []int32) {
	if !b.net.Alive(u) {
		return ivs, first
	}
	// first holds the rotation positions until each is swept.
	k0 := len(first)
	ivs, first = tent(b.net, u, ivs, first)
	for k := k0; k < len(first); k++ {
		first[k] = b.net.RotationStep(u, int(first[k]), ivs[k].MidDirection(), false, nil)
	}
	return ivs, first
}

// analyzeRows refills the successor rows and re-runs the stuck analysis
// of the nodes dirty, sorted ascending, in parallel, each worker
// appending to an arena of its own; then it lays the stuck analysis out
// afresh, the clean nodes' spans copied from the old layout in runs and
// the dirty ones from the arenas, which back to back hold them in order.
func (b *Boundaries) analyzeRows(dirty []topo.NodeID) {
	if len(dirty) == 0 {
		return
	}
	type arena struct {
		lo    int
		ivs   []StuckInterval
		first []int32
	}
	b.count = grow(b.count, len(dirty))
	var (
		mu     sync.Mutex
		arenas []arena
	)
	// Sized for one stuck interval per two neighbors, more than the
	// benchmark's FA-800-42 has (7,924 to 19,526 slots), so an arena
	// rarely grows.
	perNode := b.net.AdjSlots()/(2*b.net.N()) + 1
	par.For(len(dirty), func(lo, hi int) {
		c := perNode * (hi - lo)
		a := arena{lo: lo, ivs: make([]StuckInterval, 0, c), first: make([]int32, 0, c)}
		for i := lo; i < hi; i++ {
			b.fillRow(dirty[i])
			k := len(a.first)
			a.ivs, a.first = b.analyze(dirty[i], a.ivs, a.first)
			b.count[i] = int32(len(a.first) - k)
		}
		mu.Lock()
		arenas = append(arenas, a)
		mu.Unlock()
	})
	slices.SortFunc(arenas, func(x, y arena) int { return x.lo - y.lo })
	fresh := arenas[0]
	for _, a := range arenas[1:] {
		fresh.ivs, fresh.first = append(fresh.ivs, a.ivs...), append(fresh.first, a.first...)
	}

	n, old := b.net.N(), b.stuckOff
	total := len(b.first) + len(fresh.first)
	for _, u := range dirty {
		total -= int(old[u+1] - old[u])
	}
	off := make([]int32, n+1)
	ivs, first := make([]StuckInterval, 0, total), make([]int32, 0, total)
	u, at := 0, int32(0)
	for i := 0; i <= len(dirty); i++ {
		end := n
		if i < len(dirty) {
			end = int(dirty[i])
		}
		ivs, first = append(ivs, b.ivs[old[u]:old[end]]...), append(first, b.first[old[u]:old[end]]...)
		for ; u < end; u++ {
			off[u+1] = off[u] + old[u+1] - old[u]
		}
		if i < len(dirty) {
			next := at + b.count[i]
			ivs, first = append(ivs, fresh.ivs[at:next]...), append(first, fresh.first[at:next]...)
			off[u+1], at, u = off[u]+b.count[i], next, u+1
		}
	}
	b.stuckOff, b.ivs, b.first = off, ivs, first
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
	for i := range b.net.N() {
		u := topo.NodeID(i)
		off := int32(b.net.AdjOffset(u))
		for _, col := range b.firstHops(u) {
			if col < 0 {
				continue
			}
			s0 := off + col
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
	holeIdx := make([]*Hole, holeOff[b.net.N()])
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
	slices.Sort(dirty)
	b.dirty = dirty
	b.analyzeRows(dirty)
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
	b.analyzeRows(dirty)
	b.derive()
}

// grow returns buf resliced to n, reallocated when its capacity is
// short; the entries are stale.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growClear returns buf grown to at least n and cleared.
func growClear[T any](buf []T, n int) []T {
	if len(buf) < n {
		return make([]T, n)
	}
	clear(buf)
	return buf
}

// cycleBBox bounds the positions of the cycle's nodes, as
// geom.Rect.Union would.
func cycleBBox(net *topo.Network, cycle []topo.NodeID) geom.Rect {
	p := net.Pos(cycle[0])
	bb := geom.Rect{Min: p, Max: p}
	for _, v := range cycle[1:] {
		p := net.Pos(v)
		bb.Min.X, bb.Min.Y = min(bb.Min.X, p.X), min(bb.Min.Y, p.Y)
		bb.Max.X, bb.Max.Y = max(bb.Max.X, p.X), max(bb.Max.Y, p.Y)
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
