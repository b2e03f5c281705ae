package bound

import (
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
// for GF routing. It also retains the per-walk cache and the successor
// table that let Repair re-derive the holes after a topology change by
// re-walking only the walks that passed through the changed region.
type Boundaries struct {
	Holes []*Hole
	// byNode maps each boundary node to the holes it belongs to.
	byNode map[topo.NodeID][]*Hole
	// MessageCount estimates construction traffic: one message per
	// traversal step, the cost model used when comparing against the
	// safety-information construction. After a Repair it equals what a
	// from-scratch run on the mutated network would report.
	MessageCount int

	// Repair state: the network the boundaries were traced on, the
	// boundary length cap, the cached TENT results and walk outcomes per
	// node, and the generation-stamped claimed-edge scratch of assemble.
	net      *topo.Network
	maxLen   int
	recs     []nodeRec
	claimGen []uint32
	claimG   uint32
	// Successor table, indexed by CSR edge slot. A walk that arrived at
	// cur over prev→cur leaves over out[b], where b is the slot of the
	// back-edge cur→prev; rev[s] is the slot of the reverse of edge s.
	// Both out[b] and b lie in cur's row, so a row of out depends only on
	// that row's geometry and its neighbors' liveness. off holds the row
	// offsets the table was laid out against, and spare is the second
	// buffer position repair shifts clean rows into.
	out, rev, off, spare []int32
	// Repair scratch reused across calls (repairs are serialized by the
	// caller, like claimGen): the dirty-node marks and the re-walk job
	// list, grown to the current node count on demand.
	tentDirty []bool
	walkDirty []bool
	jobs      []traceJob
}

// traceRec caches the outcome of one BOUNDHOLE walk (one stuck interval
// of one stuck node): the closed cycle (nil when the walk failed to
// close or was overlong), the touched set — every node whose
// neighborhood the walk swept, cycle nodes for a closed walk and the
// visited prefix for a failed one — and first, the column of the first
// hop in the start node's row (-1 when the gap has no way in). A
// liveness change at node x can only alter sweeps at x or its static
// neighbors, so a cached walk stays valid exactly while its touched set
// avoids {x} ∪ N(x).
type traceRec struct {
	cycle   []topo.NodeID
	touched []topo.NodeID
	first   int32
}

// nodeRec caches the stuck analysis of one node: its TENT result and
// the walk outcome of each stuck interval (index-aligned with
// tent.Intervals). The zero value marks a node that is dead or not
// stuck.
type nodeRec struct {
	tent   TentResult
	traces []traceRec
}

// HolesAt returns the holes whose boundary contains u (nil if none).
func (b *Boundaries) HolesAt(u topo.NodeID) []*Hole { return b.byNode[u] }

// OnBoundary reports whether u lies on any hole boundary.
func (b *Boundaries) OnBoundary(u topo.NodeID) bool { return len(b.byNode[u]) > 0 }

// maxBoundarySteps caps one traversal; BOUNDHOLE boundaries cannot visit a
// directed edge twice, so 4|V| is far beyond any legitimate cycle and only
// trips on pathological float geometry.
func maxBoundarySteps(net *topo.Network) int { return 4 * net.N() }

// boundaryLenCap bounds the length of a kept boundary. Boundaries longer
// than this are walk artifacts, not hole rims: a genuine hole boundary
// cannot involve more than a fraction of the network. They would only
// mislead detours, so they are dropped — and the tracer aborts as soon
// as a walk exceeds the cap rather than burning its full step budget on
// a cycle that cannot be kept.
func boundaryLenCap(net *topo.Network) int {
	maxLen := net.N() / 4
	if maxLen < 16 {
		maxLen = 16
	}
	return maxLen
}

// FindHoles runs the TENT rule and then BOUNDHOLE from every stuck
// direction, deduplicating holes that share boundary edges.
//
// Simplification vs. the original protocol: the original refines the
// boundary when a newly added edge crosses an earlier one; this
// implementation instead cuts the cycle at the first revisited directed
// edge, which yields the same closed boundary on the unit-disk graphs used
// here (the refinement only matters under lossy/asymmetric links).
//
// The returned Boundaries retain every walk outcome, so a later Repair
// after node failures re-traces only the walks whose swept region the
// failure touched.
func FindHoles(net *topo.Network) *Boundaries {
	b := &Boundaries{
		net:    net,
		maxLen: boundaryLenCap(net),
		recs:   make([]nodeRec, net.N()),
		out:    make([]int32, net.AdjSlots()),
		rev:    make([]int32, net.AdjSlots()),
		off:    rowOffsets(net, nil),
	}
	par.For(net.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			b.fillRow(topo.NodeID(u))
			b.fillRev(topo.NodeID(u))
		}
	})
	var jobs []traceJob
	for i, res := range StuckNodes(net) {
		if !res.Stuck() {
			continue
		}
		b.recs[i] = nodeRec{tent: res, traces: make([]traceRec, len(res.Intervals))}
		for k := range res.Intervals {
			jobs = append(jobs, traceJob{u: res.Node, k: k})
		}
	}
	b.runTraces(jobs)
	b.assemble()
	return b
}

// rowOffsets copies the network's CSR row offsets (n+1 entries) into buf.
func rowOffsets(net *topo.Network, buf []int32) []int32 {
	buf = slices.Grow(buf[:0], net.N()+1)
	for u := 0; u <= net.N(); u++ {
		buf = append(buf, int32(net.AdjOffset(topo.NodeID(u))))
	}
	return buf
}

// fillRow computes row u of the successor table: for the back-edge to
// each neighbor prev, the CW sweep at u from prev's bearing, excluding
// prev, bouncing back to prev at a dead end.
func (b *Boundaries) fillRow(u topo.NodeID) {
	off := b.net.AdjOffset(u)
	angs := b.net.AdjacencyAngles(u)
	for j, prev := range b.net.AdjacencyRow(u) {
		_, s := sweepCW(b.net, u, angs[j], prev)
		if s < 0 {
			s = int32(off + j)
		}
		b.out[off+j] = s
	}
}

// fillRev computes row u of the reverse-slot table. Rows are sorted
// ascending and the adjacency is symmetric, so u sits in each
// neighbor's row at its binary-search position.
func (b *Boundaries) fillRev(u topo.NodeID) {
	off := b.net.AdjOffset(u)
	for j, v := range b.net.AdjacencyRow(u) {
		k, _ := slices.BinarySearch(b.net.AdjacencyRow(v), u)
		b.rev[off+j] = int32(b.net.AdjOffset(v) + k)
	}
}

// traceJob identifies one walk to run: stuck interval k of node u. The
// destination slot recs[u].traces[k] must already exist.
type traceJob struct {
	u topo.NodeID
	k int
}

// runTraces executes the walks. Every walk is independent (it reads the
// network and the successor table and writes only its own trace slot),
// so the jobs fan out across GOMAXPROCS with one tracer — the walk
// scratch — per chunk. A walk that reproduces the record already in its
// slot keeps it and allocates nothing.
func (b *Boundaries) runTraces(jobs []traceJob) {
	par.For(len(jobs), func(lo, hi int) {
		tr := newTracer(b)
		for i := lo; i < hi; i++ {
			j := jobs[i]
			rec := &b.recs[j.u]
			t := &rec.traces[j.k]
			cycle, touched, first := tr.trace(j.u, rec.tent.Intervals[j.k])
			switch {
			case (cycle != nil) == (t.cycle != nil) && slices.Equal(touched, t.touched):
				t.first = first
			case cycle != nil:
				kept := slices.Clone(cycle)
				*t = traceRec{cycle: kept, touched: kept, first: first}
			default:
				*t = traceRec{touched: slices.Clone(touched), first: first}
			}
		}
	})
}

// assemble rebuilds Holes, the node index, and MessageCount from the
// cached walks, replaying the discovery order of a from-scratch run:
// nodes ascending, intervals in TENT order, first claim of a directed
// edge wins. An incremental Repair therefore assigns the same hole ids,
// cycles, and message counts as FindHoles on the mutated network.
func (b *Boundaries) assemble() {
	b.Holes = b.Holes[:0]
	if b.byNode == nil {
		b.byNode = make(map[topo.NodeID][]*Hole)
	} else {
		clear(b.byNode)
	}
	b.MessageCount = 0
	// Claimed directed boundary edges live in a generation-stamped array
	// indexed by CSR edge slot — O(1) to reset, no hashing per edge.
	// Position repair can grow the slot count, so resize by length (the
	// generation bump makes any slot-shifted stale stamps harmless).
	if len(b.claimGen) < b.net.AdjSlots() {
		b.claimGen = make([]uint32, b.net.AdjSlots())
	}
	b.claimG++
	if b.claimG == 0 {
		clear(b.claimGen)
		b.claimG = 1
	}
	for i := range b.recs {
		for _, t := range b.recs[i].traces {
			if len(t.cycle) < 3 {
				continue
			}
			b.MessageCount += len(t.cycle)
			// A trace that shares a directed edge with ANY earlier trace —
			// kept or itself deduplicated — re-found the same hole from
			// another stuck direction. Claiming only kept holes' edges was
			// a long-standing bug: a dropped duplicate's remaining edges
			// stayed unclaimed, so a third walk of the same hole entering
			// through those edges was kept as a phantom second hole. Every
			// emitted cycle claims its edges, dropped or not, making the
			// duplicate relation transitive. The cycle's edges are replayed
			// from the successor table: a cached walk is valid, so following
			// the table from its first hop retraces it edge for edge, and
			// a walk never repeats a directed edge, so claiming as it goes
			// cannot make a cycle its own duplicate.
			dup := false
			s := int32(b.net.AdjOffset(topo.NodeID(i))) + t.first
			for range t.cycle {
				dup = dup || b.claimGen[s] == b.claimG
				b.claimGen[s] = b.claimG
				s = b.out[b.rev[s]]
			}
			if dup {
				continue
			}
			hole := &Hole{ID: len(b.Holes), Cycle: t.cycle, BBox: cycleBBox(b.net, t.cycle)}
			b.Holes = append(b.Holes, hole)
			for _, v := range t.cycle {
				b.byNode[v] = append(b.byNode[v], hole)
			}
		}
	}
}

// Repair incrementally re-derives the boundaries after the liveness of
// the given nodes changed (topo.Network.SetAlive already applied; both
// failures and revivals are handled). The TENT rule re-runs only on the
// changed nodes and their static neighbors — the only nodes whose
// angular gaps moved — and only walks whose swept region intersects
// that dirty set are re-traced; every other walk replays from the
// cache. The resulting hole set is identical to FindHoles on the
// mutated network at a small fraction of the cost: repair work scales
// with the failure neighborhood and the boundaries through it, not with
// the network.
func (b *Boundaries) Repair(changed []topo.NodeID) {
	// Two dirt notions. tentDirty marks nodes whose TENT analysis must
	// re-run: the changed nodes and their static neighbors (TENT reads
	// the full neighborhood). walkDirty marks nodes whose presence in a
	// walk's touched set invalidates the walk — and is finer for
	// failures: a CW sweep's outcome changes on candidate removal only
	// if the removed node was the sweep's winner, i.e. the walk's next
	// hop, so a failed node deflects exactly the walks that visited it.
	// A revived node can newly win any sweep at its neighbors, so it
	// dirties its whole neighborhood.
	b.tentDirty = growClear(b.tentDirty, b.net.N())
	b.walkDirty = growClear(b.walkDirty, b.net.N())
	tentDirty, walkDirty := b.tentDirty, b.walkDirty
	for _, x := range changed {
		tentDirty[x] = true
		walkDirty[x] = true
		revived := b.net.Alive(x)
		for _, v := range b.net.AdjacencyRow(x) {
			tentDirty[v] = true
			if revived {
				walkDirty[v] = true
			}
		}
	}
	// SetAlive leaves the CSR layout alone, so rev stays valid; the
	// successor rows whose candidates' liveness changed — exactly the
	// TENT-dirty rows — are recomputed.
	for u, d := range tentDirty {
		if d {
			b.fillRow(topo.NodeID(u))
		}
	}
	b.repairDirty(tentDirty, walkDirty)
}

// RepairMoved incrementally re-derives the boundaries after node
// positions changed (topo.Network.SetPositions already applied). dirty
// is the geometric dirty set SetPositions returned. Both the TENT
// analysis at a node and a CW sweep at a visited walk node read exactly
// that node's row geometry — neighbor ids, bearings, packed positions —
// so a node's cached analysis and the walks that swept it are invalid
// precisely when the node is in the dirty set: tentDirty and walkDirty
// coincide for moves.
func (b *Boundaries) RepairMoved(dirty []topo.NodeID) {
	b.tentDirty = growClear(b.tentDirty, b.net.N())
	mark := b.tentDirty
	for _, x := range dirty {
		mark[x] = true
	}
	// SetPositions moved the CSR slots: dirty rows are recomputed, clean
	// rows keep their successors shifted by their row's offset delta, and
	// the reverse slots are re-derived for every row.
	slots := b.net.AdjSlots()
	oldOut := b.out
	b.out = slices.Grow(b.spare[:0], slots)[:slots]
	b.rev = slices.Grow(b.rev[:0], slots)[:slots]
	par.For(b.net.N(), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			if mark[u] {
				b.fillRow(topo.NodeID(u))
			} else {
				delta := int32(b.net.AdjOffset(topo.NodeID(u))) - b.off[u]
				for s := b.off[u]; s < b.off[u+1]; s++ {
					b.out[s+delta] = oldOut[s] + delta
				}
			}
			b.fillRev(topo.NodeID(u))
		}
	})
	b.spare = oldOut
	b.off = rowOffsets(b.net, b.off)
	b.repairDirty(mark, mark)
}

// growClear returns buf grown to at least n and cleared — the dirty-mark
// scratch shared by the repair entry points.
func growClear(buf []bool, n int) []bool {
	if len(buf) < n {
		return make([]bool, n)
	}
	clear(buf)
	return buf
}

// repairDirty re-runs TENT on the tentDirty nodes, re-walks every walk
// that swept a walkDirty node, and reassembles the hole set. The
// successor table must already describe the current network.
func (b *Boundaries) repairDirty(tentDirty, walkDirty []bool) {
	jobs := b.jobs[:0]
	for i := range b.recs {
		u := topo.NodeID(i)
		if tentDirty[i] {
			if !b.net.Alive(u) {
				b.recs[i] = nodeRec{}
				continue
			}
			res := Tent(b.net, u)
			if !res.Stuck() {
				b.recs[i] = nodeRec{}
				continue
			}
			// When the stuck intervals survived the change, the cached
			// walks stay valid too (walk outcomes depend on the seed
			// interval and the swept rows only); fall through to the
			// per-walk check. Otherwise every walk of the node re-runs,
			// into the old records when the interval count held (each
			// keeps its record if it reproduces it).
			if !slices.Equal(res.Intervals, b.recs[i].tent.Intervals) {
				if len(res.Intervals) != len(b.recs[i].traces) {
					b.recs[i] = nodeRec{tent: res, traces: make([]traceRec, len(res.Intervals))}
				} else {
					b.recs[i].tent = res
				}
				for k := range res.Intervals {
					jobs = append(jobs, traceJob{u: u, k: k})
				}
				continue
			}
			b.recs[i].tent = res
		}
		// Re-walk only the walks that swept a walk-dirty node.
		for k := range b.recs[i].traces {
			if touchesDirty(b.recs[i].traces[k].touched, walkDirty) {
				jobs = append(jobs, traceJob{u: u, k: k})
			}
		}
	}
	b.jobs = jobs
	b.runTraces(jobs)
	b.assemble()
}

// touchesDirty reports whether any of the nodes is marked dirty.
func touchesDirty(nodes []topo.NodeID, dirty []bool) bool {
	for _, v := range nodes {
		if dirty[v] {
			return true
		}
	}
	return false
}

func cycleBBox(net *topo.Network, cycle []topo.NodeID) geom.Rect {
	bb := geom.FromCorners(net.Pos(cycle[0]), net.Pos(cycle[0]))
	for _, v := range cycle[1:] {
		bb = bb.Union(geom.FromCorners(net.Pos(v), net.Pos(v)))
	}
	return bb
}

// tracer holds the reusable scratch of BOUNDHOLE traversals: the cycle
// buffer and the visited directed-edge stamps, allocated once per walk
// worker and reused across its traces. Visited edges live in a
// generation-stamped array indexed by CSR edge slot, so starting a new
// walk is a counter bump and each step costs one array write instead of
// a map insert.
type tracer struct {
	b       *Boundaries
	cycle   []topo.NodeID
	edgeGen []uint32
	gen     uint32
}

func newTracer(b *Boundaries) *tracer {
	return &tracer{
		b:       b,
		cycle:   make([]topo.NodeID, 0, b.maxLen+1),
		edgeGen: make([]uint32, b.net.AdjSlots()),
	}
}

// walked stamps the directed edge in slot s as walked this walk,
// reporting whether it already was.
func (tr *tracer) walked(s int32) bool {
	if tr.edgeGen[s] == tr.gen {
		return true
	}
	tr.edgeGen[s] = tr.gen
	return false
}

// trace walks the hole boundary starting at stuck node t0, heading into
// the stuck angular gap and sweeping clockwise (keeping the hole on the
// left), until the walk returns to t0. Only the first hop sweeps; every
// later step is a successor-table lookup. cycle is nil when no closed
// boundary forms: the original protocol's edge-crossing refinement is
// approximated by aborting on any repeated directed edge — a repeat
// means the walk fell into a sub-cycle that can never close at t0.
// Walks exceeding maxLen abort immediately (assemble would discard the
// cycle anyway).
//
// touched is every node visited by the walk — a superset of the nodes
// whose neighborhoods were swept — and is returned for both closed and
// failed walks so Repair can tell which changes invalidate this
// outcome. first is the column of the first hop in t0's row, -1 when
// the gap has no way in. Both returned slices alias the tracer's buffer
// and are only valid until the next trace call.
func (tr *tracer) trace(t0 topo.NodeID, iv StuckInterval) (cycle, touched []topo.NodeID, first int32) {
	b := tr.b
	net := b.net
	buf := append(tr.cycle[:0], t0)
	defer func() { tr.cycle = buf[:0] }()
	// First hop: sweep CW from the middle of the stuck gap; the first
	// neighbor hit is the gap's boundary node.
	cur, s := sweepCW(net, t0, iv.MidDirection(), topo.NoNode)
	if cur == topo.NoNode {
		return nil, buf, -1
	}
	first = s - int32(net.AdjOffset(t0))
	tr.gen++
	if tr.gen == 0 {
		clear(tr.edgeGen)
		tr.gen = 1
	}
	tr.walked(s)
	budget := maxBoundarySteps(net)
	for step := 0; step < budget; step++ {
		if cur == t0 {
			return buf, buf, first
		}
		buf = append(buf, cur)
		if len(buf) > b.maxLen {
			return nil, buf, first // overlong: assemble would drop it
		}
		// The walk arrived over s = prev→cur; the next boundary edge is
		// the table's successor of the back-edge cur→prev.
		s = b.out[b.rev[s]]
		if tr.walked(s) {
			return nil, buf, first // sub-cycle: the walk cannot close at t0
		}
		cur = net.AdjacencyRow(cur)[int(s)-net.AdjOffset(cur)]
	}
	return nil, buf, first
}

// sweepCW returns the neighbor of u whose direction is first reached when
// rotating clockwise from the angle `from`, skipping `exclude` (pass
// topo.NoNode to allow all neighbors), and the CSR slot of the edge to
// it (NoNode and -1 when no neighbor qualifies). It runs on the
// network's precomputed edge bearings, so a sweep performs no
// trigonometry.
func sweepCW(net *topo.Network, u topo.NodeID, from float64, exclude topo.NodeID) (topo.NodeID, int32) {
	row := net.AdjacencyRow(u)
	angs := net.AdjacencyAngles(u)
	checkAlive := net.DeadCount() > 0
	best := topo.NoNode
	bestDelta := geom.TwoPi + 1
	bestJ := -1
	for j, v := range row {
		if v == exclude || (checkAlive && !net.Alive(v)) {
			continue
		}
		delta := geom.CWDelta(from, angs[j])
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta {
			bestDelta = delta
			best = v
			bestJ = j
		}
	}
	if bestJ < 0 {
		return topo.NoNode, -1
	}
	return best, int32(net.AdjOffset(u) + bestJ)
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
