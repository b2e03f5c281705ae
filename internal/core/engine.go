package core

import (
	"math"
	"sync"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// state is the per-packet routing state shared by all algorithms.
//
// # Pooled-scratch contract
//
// States are pooled: drive acquires one from statePool, resets the
// per-route fields, and returns it when the route completes. The tried
// stamps and the failedHoles map are retained across routes (the stamps
// are invalidated by a generation bump, the map cleared on reuse), so
// steady-state routing performs no allocations. Nothing in a state may
// escape a Route call: algorithms must copy anything they want to keep
// into the Result before drive returns.
type state struct {
	net    *topo.Network
	src    topo.NodeID
	dst    topo.NodeID
	dstPos geom.Point

	cur  topo.NodeID
	prev topo.NodeID

	// tried records the successor edges already attempted by detour
	// sweeps — the paper's "untried node" bookkeeping — as per-CSR-slot
	// generation stamps: the directed edge in global slot s has been
	// tried this route iff tried[s] == triedGen. Clearing between routes
	// is an O(1) generation bump; the array is reallocated only when a
	// pooled state meets a larger network. Greedy-only routes never
	// touch it.
	tried    []uint32
	triedGen uint32

	// hand is the committed hand rule (HandNone until a detour starts).
	hand Hand

	// phase reports which phase selected the most recent hop.
	phase Phase

	// perimeterActive marks a persistent perimeter phase: it holds until
	// the packet reaches a node closer to the destination than the stuck
	// node that started it (§1: "...until it reaches a node that is
	// closer to the destination than that stuck node").
	perimeterActive bool

	// backupActive marks a persistent backup-path phase (SLGF2): safe
	// forwarding resumes only with a candidate strictly closer to the
	// destination than backupDist, which stops oscillation between the
	// unsafe area's rim and its interior. backupBudget bounds the phase
	// to a multiple of the unsafe-area perimeter ("the number of detours
	// is in proportional of the perimeter of the unsafe area"); at zero
	// the routing escalates to the perimeter phase.
	backupActive bool
	backupDist   float64
	backupBudget int

	// stuckDist is the distance-to-destination recorded when the current
	// detour began (the perimeter/detour exit criterion).
	stuckDist float64

	// detour state for boundary walks (GF).
	detourHole  int // hole id, -1 when none
	detourDir   int // +1 / -1 cycle direction
	detourSteps int
	// failedHoles records holes whose boundary walk did not help this
	// packet; they are not retried (one header bit per visited hole).
	// Retained across routes, cleared on reuse.
	failedHoles map[int]struct{}

	// The superseding preferences a step arms for its next scan; they
	// live here, not in scanFilter, to keep that small enough to pass
	// in registers. avoid (SLGF2's either-hand rule): greedy candidates
	// that avoid the forbidden region of every estimate
	// (avoidModel.AvoidsForbidden) dominate the rest. confine (the
	// cautious perimeter): sweep candidates inside the box dominate.
	avoid      []safety.ShapeAt
	avoidModel *safety.Model
	confine    geom.Rect
	confined   bool
}

var statePool = sync.Pool{New: func() any {
	return &state{
		failedHoles: make(map[int]struct{}),
	}
}}

// acquireState returns a reset pooled state for one route.
func acquireState(net *topo.Network, src, dst topo.NodeID) *state {
	st := statePool.Get().(*state)
	clear(st.failedHoles)
	if n := net.AdjSlots(); len(st.tried) < n {
		st.tried = make([]uint32, n)
		st.triedGen = 0
	}
	st.triedGen++
	if st.triedGen == 0 {
		// The generation counter wrapped: stale marks could alias the
		// fresh generation, so pay one clear and restart.
		clear(st.tried)
		st.triedGen = 1
	}
	st.net = net
	st.src = src
	st.dst = dst
	st.dstPos = net.Pos(dst)
	st.cur = src
	st.prev = topo.NoNode
	st.hand = HandNone
	st.phase = 0
	st.perimeterActive = false
	st.backupActive = false
	st.backupDist = 0
	st.backupBudget = 0
	st.stuckDist = 0
	st.detourHole = -1
	st.detourDir = 0
	st.detourSteps = 0
	st.avoid, st.avoidModel, st.confined = nil, nil, false
	return st
}

func releaseState(st *state) {
	st.net = nil
	statePool.Put(st)
}

// algorithm is the per-hop decision procedure each router implements.
type algorithm interface {
	// step returns the successor of st.cur, or topo.NoNode to drop. It
	// must set st.phase for accounting.
	step(st *state) topo.NodeID
}

// defaultPathCap sizes the path allocation of buffer-less Route calls;
// typical delivered routes on the paper's networks stay well under it.
const defaultPathCap = 64

// drive runs the per-hop loop for one packet, appending the traveled
// path into pathBuf[:0] (allocating a fresh buffer when pathBuf is nil).
// obs, when non-nil, receives every hop decision as it is made; the
// nil check is the only cost of the hook on unobserved routes.
func drive(net *topo.Network, alg algorithm, src, dst topo.NodeID, ttlFactor int, pathBuf []topo.NodeID, obs HopObserver) Result {
	var res Result
	if !net.Alive(src) || !net.Alive(dst) {
		res.Reason = DropNoCandidate
		// Hand the caller's buffer back (empty) so the reuse idiom
		// `buf = res.Path[:0]` survives routes to dead endpoints.
		res.Path = pathBuf[:0]
		return res
	}
	if ttlFactor <= 0 {
		ttlFactor = DefaultTTLFactor
	}
	ttl := ttlFactor * net.N()

	st := acquireState(net, src, dst)
	defer releaseState(st)
	path := pathBuf
	if path == nil {
		path = make([]topo.NodeID, 0, defaultPathCap)
	} else {
		path = path[:0]
	}
	path = append(path, src)
	for st.cur != dst {
		if len(path)-1 >= ttl {
			res.Reason = DropTTL
			res.Path = path
			return res
		}
		next := alg.step(st)
		if next == topo.NoNode {
			res.Reason = DropNoCandidate
			res.Path = path
			return res
		}
		res.Length += net.Dist(st.cur, next)
		res.PhaseHops[st.phase]++
		if obs != nil {
			obs.ObserveHop(len(path), st.cur, next, st.phase)
		}
		st.prev = st.cur
		st.cur = next
		path = append(path, next)
	}
	res.Delivered = true
	res.Path = path
	return res
}

// neighborOfDst reports the trivial last hop: d ∈ N(u).
func neighborOfDst(st *state) bool {
	return st.net.InRange(st.cur, st.dst)
}

// enterPerimeter starts a persistent perimeter phase at the current
// (stuck) node.
func (st *state) enterPerimeter() {
	st.perimeterActive = true
	st.stuckDist = geom.Dist(st.net.Pos(st.cur), st.dstPos)
}

// perimeterDone reports whether an active perimeter phase may end: the
// packet sits closer to the destination than the stuck node was.
func (st *state) perimeterDone() bool {
	return geom.Dist(st.net.Pos(st.cur), st.dstPos) < st.stuckDist
}

// scanFilter is the pre-resolved candidate predicate of the safety-based
// algorithms. The closures the routers used to pass into the scans have
// been flattened into this value struct so the inner loops test plain
// data — a byte load against the safety-mask export instead of a
// closure call into the model — and stay free of indirect calls.
//
// The zero value accepts every candidate (the nil filter of old).
type scanFilter struct {
	// masks is the safety model's packed per-node status export
	// (safety.Model.SafeMasks: bit z-1 of masks[v] is S_z(v)); nil means
	// no safety requirement.
	masks []uint8
	// anySafe switches the masks test from "safe toward the destination"
	// (the zone bit of Z(v, d), with the position-equals-destination
	// escape of SafeToward) to "safe in any type" (mask != 0), the
	// backup sweep's rule.
	anySafe bool
	// bounded additionally requires candidates strictly closer to the
	// destination than maxDist — the backup-path progress rule. The
	// comparison uses geom.Dist (math.Hypot), the exact arithmetic of
	// the closure it replaces, so route outputs stay bit-identical.
	bounded bool
	maxDist float64
}

// prefers reports whether candidate v is in the preferred class of a
// greedy scan: every candidate is unless the step armed st.avoid.
func (st *state) prefers(v topo.NodeID) bool {
	return len(st.avoid) == 0 || st.avoidModel.AvoidsForbidden(st.avoid, st.dstPos, st.net.Pos(v))
}

// active reports whether the filter constrains anything.
func (f *scanFilter) active() bool { return f.masks != nil || f.bounded }

// accept is the straight-line evaluation of the filter on one candidate,
// used by the reference scans (and by the packed scans' rare slow
// paths). dst is the packet destination, pv the candidate's position.
func (f *scanFilter) accept(dst geom.Point, v topo.NodeID, pv geom.Point) bool {
	if f.masks != nil {
		if f.anySafe {
			if f.masks[v] == 0 {
				return false
			}
		} else if pv != dst && f.masks[v]&(1<<uint(geom.ZoneTypeOf(pv, dst)-1)) == 0 {
			return false
		}
	}
	if f.bounded && geom.Dist(pv, dst) >= f.maxDist {
		return false
	}
	return true
}

// zoneBit returns ZoneTypeOf(pv, d) - 1 as a shift count from the deltas
// zdx = d.X - pv.X, zdy = d.Y - pv.Y (dx >= 0 counts East, dy >= 0
// North — exactly the ZoneTypeOf boundary convention).
func zoneBit(zdx, zdy float64) uint {
	if zdx >= 0 {
		if zdy >= 0 {
			return 0
		}
		return 3
	}
	if zdy >= 0 {
		return 1
	}
	return 2
}

// scanOracle, when non-nil, replaces the four packed candidate scans.
// Only the package's differential tests install one, the straight-line
// reference scans (export_test.go), to pin both to bit-identical
// routes; it is not synchronized, so they flip it serially. The scans
// take plain data, no closures or pointers to the caller's stack, so
// passing them through these function values costs no allocation.
var scanOracle *scanSet

// scanSet is one implementation of the candidate scans.
type scanSet struct {
	requestZone, forwardingZone func(st *state, f scanFilter) topo.NodeID
	closest                     func(st *state) topo.NodeID
	sweep                       func(st *state, hand Hand, f scanFilter) (topo.NodeID, float64, int)
}

// greedyInRequestZone returns the neighbor of u inside Z(u, d) closest to
// the destination, or topo.NoNode. f restricts candidates (used by the
// safety-based algorithms); the step's avoid preference, when armed,
// supersedes: if any candidate is preferred, only those are considered.
//
// The hot path scans the CSR row's packed coordinate arrays four lanes
// at a time: the rectangle test, the strict-progress compare, and the
// liveness-bitset test are all straight-line float/word operations, and
// the lane selections re-test d < bestDist in ascending-slot order so
// the first strict minimum wins exactly as in the reference scan.
func greedyInRequestZone(st *state, f scanFilter) topo.NodeID {
	if scanOracle != nil {
		return scanOracle.requestZone(st, f)
	}
	up := st.net.Pos(st.cur)
	ux, uy := up.X, up.Y
	dx, dy := st.dstPos.X, st.dstPos.Y
	loX, hiX := ux, dx
	if loX > hiX {
		loX, hiX = hiX, loX
	}
	loY, hiY := uy, dy
	if loY > hiY {
		loY, hiY = hiY, loY
	}
	row := st.net.AdjacencyRow(st.cur)
	n := len(row)
	xs, ys := st.net.AdjacencyXY(st.cur)
	xs = xs[:n]
	ys = ys[:n]
	best := topo.NoNode
	bestDist := math.MaxFloat64
	if len(st.avoid) == 0 && !f.bounded && !f.anySafe {
		masks := f.masks
		hasMasks := masks != nil
		checkAlive := st.net.DeadCount() > 0
		alive := st.net.AliveBits()
		j := 0
		for ; j+4 <= n; j += 4 {
			x0, y0 := xs[j], ys[j]
			x1, y1 := xs[j+1], ys[j+1]
			x2, y2 := xs[j+2], ys[j+2]
			x3, y3 := xs[j+3], ys[j+3]
			d0 := (x0-dx)*(x0-dx) + (y0-dy)*(y0-dy)
			d1 := (x1-dx)*(x1-dx) + (y1-dy)*(y1-dy)
			d2 := (x2-dx)*(x2-dx) + (y2-dy)*(y2-dy)
			d3 := (x3-dx)*(x3-dx) + (y3-dy)*(y3-dy)
			if v := row[j]; d0 < bestDist &&
				x0 >= loX && x0 <= hiX && y0 >= loY && y0 <= hiY && !(x0 == ux && y0 == uy) &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x0, dy-y0)) != 0 || (x0 == dx && y0 == dy)) {
				best, bestDist = v, d0
			}
			if v := row[j+1]; d1 < bestDist &&
				x1 >= loX && x1 <= hiX && y1 >= loY && y1 <= hiY && !(x1 == ux && y1 == uy) &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x1, dy-y1)) != 0 || (x1 == dx && y1 == dy)) {
				best, bestDist = v, d1
			}
			if v := row[j+2]; d2 < bestDist &&
				x2 >= loX && x2 <= hiX && y2 >= loY && y2 <= hiY && !(x2 == ux && y2 == uy) &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x2, dy-y2)) != 0 || (x2 == dx && y2 == dy)) {
				best, bestDist = v, d2
			}
			if v := row[j+3]; d3 < bestDist &&
				x3 >= loX && x3 <= hiX && y3 >= loY && y3 <= hiY && !(x3 == ux && y3 == uy) &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x3, dy-y3)) != 0 || (x3 == dx && y3 == dy)) {
				best, bestDist = v, d3
			}
		}
		for ; j < n; j++ {
			x, y := xs[j], ys[j]
			d := (x-dx)*(x-dx) + (y-dy)*(y-dy)
			if v := row[j]; d < bestDist &&
				x >= loX && x <= hiX && y >= loY && y <= hiY && !(x == ux && y == uy) &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x, dy-y)) != 0 || (x == dx && y == dy)) {
				best, bestDist = v, d
			}
		}
		return best
	}
	// Slow path: a prefer class or a distance bound is in play (rare —
	// SLGF2 with blocking estimates). Single pass with the dual-class
	// selection: preferred candidates strictly dominate non-preferred.
	checkAlive := st.net.DeadCount() > 0
	alive := st.net.AliveBits()
	bestPreferred := false
	for j, v := range row {
		if checkAlive && alive[v>>6]&(1<<(uint(v)&63)) == 0 {
			continue
		}
		x, y := xs[j], ys[j]
		if x < loX || x > hiX || y < loY || y > hiY || (x == ux && y == uy) {
			continue
		}
		if !f.accept(st.dstPos, v, geom.Pt(x, y)) {
			continue
		}
		pref := st.prefers(v)
		d := (x-dx)*(x-dx) + (y-dy)*(y-dy)
		switch {
		case pref && !bestPreferred:
			best, bestDist, bestPreferred = v, d, true
		case pref == bestPreferred && d < bestDist:
			best, bestDist = v, d
		}
	}
	return best
}

// greedyInForwardingZone returns the neighbor of u inside the forwarding
// quadrant Q_k(u) toward the destination that is strictly closer to it,
// minimizing that distance. f behaves as in greedyInRequestZone.
//
// The safety-based routings use the quadrant, not the thin request-zone
// rectangle: the safety statuses (Definition 1) and Theorem 1's guarantee
// are defined on forwarding zones Q_i, and a near-axis-aligned
// destination makes the rectangle arbitrarily thin, blocking forwardings
// the information model has proven safe. The progress requirement keeps
// the advance loop-free where the quadrant alone would allow overshoot.
//
// The quadrant membership test collapses to two sign comparisons per
// candidate (same East/North boundary convention as ZoneTypeOf), and a
// candidate at u's own position is excluded by the progress requirement
// (its distance equals the limit), so no explicit equality test is
// needed on the hot path.
func greedyInForwardingZone(st *state, f scanFilter) topo.NodeID {
	if scanOracle != nil {
		return scanOracle.forwardingZone(st, f)
	}
	up := st.net.Pos(st.cur)
	ux, uy := up.X, up.Y
	dx, dy := st.dstPos.X, st.dstPos.Y
	ex := dx >= ux
	ey := dy >= uy
	ldx := ux - dx
	ldy := uy - dy
	limit := ldx*ldx + ldy*ldy
	row := st.net.AdjacencyRow(st.cur)
	n := len(row)
	xs, ys := st.net.AdjacencyXY(st.cur)
	xs = xs[:n]
	ys = ys[:n]
	best := topo.NoNode
	bestDist := limit
	if len(st.avoid) == 0 && !f.bounded && !f.anySafe {
		masks := f.masks
		hasMasks := masks != nil
		checkAlive := st.net.DeadCount() > 0
		alive := st.net.AliveBits()
		j := 0
		for ; j+4 <= n; j += 4 {
			x0, y0 := xs[j], ys[j]
			x1, y1 := xs[j+1], ys[j+1]
			x2, y2 := xs[j+2], ys[j+2]
			x3, y3 := xs[j+3], ys[j+3]
			d0 := (x0-dx)*(x0-dx) + (y0-dy)*(y0-dy)
			d1 := (x1-dx)*(x1-dx) + (y1-dy)*(y1-dy)
			d2 := (x2-dx)*(x2-dx) + (y2-dy)*(y2-dy)
			d3 := (x3-dx)*(x3-dx) + (y3-dy)*(y3-dy)
			if v := row[j]; d0 < bestDist && (x0 >= ux) == ex && (y0 >= uy) == ey &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x0, dy-y0)) != 0 || (x0 == dx && y0 == dy)) {
				best, bestDist = v, d0
			}
			if v := row[j+1]; d1 < bestDist && (x1 >= ux) == ex && (y1 >= uy) == ey &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x1, dy-y1)) != 0 || (x1 == dx && y1 == dy)) {
				best, bestDist = v, d1
			}
			if v := row[j+2]; d2 < bestDist && (x2 >= ux) == ex && (y2 >= uy) == ey &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x2, dy-y2)) != 0 || (x2 == dx && y2 == dy)) {
				best, bestDist = v, d2
			}
			if v := row[j+3]; d3 < bestDist && (x3 >= ux) == ex && (y3 >= uy) == ey &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x3, dy-y3)) != 0 || (x3 == dx && y3 == dy)) {
				best, bestDist = v, d3
			}
		}
		for ; j < n; j++ {
			x, y := xs[j], ys[j]
			d := (x-dx)*(x-dx) + (y-dy)*(y-dy)
			if v := row[j]; d < bestDist && (x >= ux) == ex && (y >= uy) == ey &&
				(!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) &&
				(!hasMasks || masks[v]&(1<<zoneBit(dx-x, dy-y)) != 0 || (x == dx && y == dy)) {
				best, bestDist = v, d
			}
		}
		return best
	}
	// Slow path: prefer class or backup distance bound (the Hypot
	// compare) in play.
	checkAlive := st.net.DeadCount() > 0
	alive := st.net.AliveBits()
	bestPreferred := false
	for j, v := range row {
		if checkAlive && alive[v>>6]&(1<<(uint(v)&63)) == 0 {
			continue
		}
		x, y := xs[j], ys[j]
		if (x >= ux) != ex || (y >= uy) != ey {
			continue
		}
		d := (x-dx)*(x-dx) + (y-dy)*(y-dy)
		if d >= limit {
			continue // must make progress
		}
		if !f.accept(st.dstPos, v, geom.Pt(x, y)) {
			continue
		}
		pref := st.prefers(v)
		switch {
		case pref && !bestPreferred:
			best, bestDist, bestPreferred = v, d, true
		case pref == bestPreferred && d < bestDist:
			best, bestDist = v, d
		}
	}
	return best
}

// greedyClosest returns the classic GF successor: the neighbor strictly
// closer to the destination than u, minimizing that distance.
func greedyClosest(st *state) topo.NodeID {
	if scanOracle != nil {
		return scanOracle.closest(st)
	}
	up := st.net.Pos(st.cur)
	dx, dy := st.dstPos.X, st.dstPos.Y
	ldx := up.X - dx
	ldy := up.Y - dy
	limit := ldx*ldx + ldy*ldy
	row := st.net.AdjacencyRow(st.cur)
	n := len(row)
	xs, ys := st.net.AdjacencyXY(st.cur)
	xs = xs[:n]
	ys = ys[:n]
	checkAlive := st.net.DeadCount() > 0
	alive := st.net.AliveBits()
	best := topo.NoNode
	bestDist := limit
	j := 0
	for ; j+4 <= n; j += 4 {
		x0, y0 := xs[j], ys[j]
		x1, y1 := xs[j+1], ys[j+1]
		x2, y2 := xs[j+2], ys[j+2]
		x3, y3 := xs[j+3], ys[j+3]
		d0 := (x0-dx)*(x0-dx) + (y0-dy)*(y0-dy)
		d1 := (x1-dx)*(x1-dx) + (y1-dy)*(y1-dy)
		d2 := (x2-dx)*(x2-dx) + (y2-dy)*(y2-dy)
		d3 := (x3-dx)*(x3-dx) + (y3-dy)*(y3-dy)
		if v := row[j]; d0 < bestDist && (!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) {
			best, bestDist = v, d0
		}
		if v := row[j+1]; d1 < bestDist && (!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) {
			best, bestDist = v, d1
		}
		if v := row[j+2]; d2 < bestDist && (!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) {
			best, bestDist = v, d2
		}
		if v := row[j+3]; d3 < bestDist && (!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) {
			best, bestDist = v, d3
		}
	}
	for ; j < n; j++ {
		x, y := xs[j], ys[j]
		d := (x-dx)*(x-dx) + (y-dy)*(y-dy)
		if v := row[j]; d < bestDist && (!checkAlive || alive[v>>6]&(1<<(uint(v)&63)) != 0) {
			best, bestDist = v, d
		}
	}
	return best
}

// sweepUntried rotates the ray from u toward the destination in the
// hand's direction and returns the first untried neighbor accepted by
// f; the step's confine box, when armed, acts as the superseding
// preference (candidates inside it dominate), the cautious perimeter's
// confinement.
// The returned node is marked tried. topo.NoNode when the sweep is
// exhausted.
func sweepUntried(st *state, hand Hand, f scanFilter) topo.NodeID {
	best, _, slot := sweepScan(st, hand, f)
	if best != topo.NoNode {
		st.tried[slot] = st.triedGen
	}
	return best
}

// sweepPeek is sweepUntried without the tried-marking side effect; it
// also reports the winning candidate's sweep rotation, which the
// either-hand rule uses to compare the two hands at detour entry.
func sweepPeek(st *state, hand Hand, f scanFilter) (topo.NodeID, float64) {
	best, delta, _ := sweepScan(st, hand, f)
	return best, delta
}

// sweepScan is the shared sweep kernel: it returns the winning
// candidate, its rotation, and its global CSR slot (for tried-marking).
// The tried test is a generation-stamp compare against the row's slice
// of st.tried, and the liveness/safety tests run on the bitset and mask
// exports — no per-candidate calls leave the loop.
//
// It walks the row's rotation from the ray's bearing in the hand's
// direction (forward for the right hand's counter-clockwise sweep,
// backward for the left hand's clockwise one), so the candidates come
// in non-decreasing sweep delta and the walk stops once a preferred
// candidate is held and the next delta passes its delta by more than
// rounding at the 0/2π seam. Equal deltas go to the lowest column, the
// row scan's first strict minimum. A ray within 1e-9 of the seam, where
// a delta can wrap to 0 at the end of the walk, walks the whole row.
func sweepScan(st *state, hand Hand, f scanFilter) (topo.NodeID, float64, int) {
	if scanOracle != nil {
		return scanOracle.sweep(st, hand, f)
	}
	up := st.net.Pos(st.cur)
	from := geom.Angle(up, st.dstPos)
	dx, dy := st.dstPos.X, st.dstPos.Y
	row := st.net.AdjacencyRow(st.cur)
	n := len(row)
	angs := st.net.AdjacencyAngles(st.cur)[:n]
	rot := st.net.AdjacencyRotation(st.cur)[:n]
	xs, ys := st.net.AdjacencyXY(st.cur)
	xs = xs[:n]
	ys = ys[:n]
	base := st.net.AdjOffset(st.cur)
	marks := st.tried[base : base+n]
	gen := st.triedGen
	checkAlive := st.net.DeadCount() > 0
	alive := st.net.AliveBits()
	masks := f.masks
	// p: the first rotation position at or past the ray in the hand's
	// direction.
	lo, hi := 0, n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a := angs[rot[m]]; a < from || hand == LeftHand && a == from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	p, step := lo, 1
	if hand == LeftHand {
		p, step = lo-1, -1
	}
	seam := from < 1e-9 || from > geom.TwoPi-1e-9
	stop := math.MaxFloat64
	best := topo.NoNode
	bestPreferred := false
	bestDelta := math.MaxFloat64
	bestJ := n
	for range n {
		if p == n {
			p = 0
		} else if p < 0 {
			p = n - 1
		}
		j := int(rot[p])
		p += step
		delta := hand.sweepDelta(from, angs[j])
		if delta > stop {
			break
		}
		if marks[j] == gen {
			continue
		}
		v := row[j]
		if checkAlive && alive[v>>6]&(1<<(uint(v)&63)) == 0 {
			continue
		}
		x, y := xs[j], ys[j]
		if masks != nil {
			if f.anySafe {
				if masks[v] == 0 {
					continue
				}
			} else if !(x == dx && y == dy) && masks[v]&(1<<zoneBit(dx-x, dy-y)) == 0 {
				continue
			}
		}
		if f.bounded && math.Hypot(x-dx, y-dy) >= f.maxDist {
			continue
		}
		pref := !st.confined || st.confine.Contains(geom.Pt(x, y))
		switch {
		case pref && !bestPreferred:
			best, bestDelta, bestPreferred, bestJ = v, delta, true, j
		case pref == bestPreferred && (delta < bestDelta || delta == bestDelta && j < bestJ):
			best, bestDelta, bestJ = v, delta, j
		default:
			continue
		}
		if bestPreferred && !seam {
			stop = bestDelta + 1e-9
		}
	}
	if best == topo.NoNode {
		return best, bestDelta, -1
	}
	return best, bestDelta, base + bestJ
}
