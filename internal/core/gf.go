package core

import (
	"sync"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// GF is the classic geographic greedy forwarding baseline of §5: greedy
// advance to the neighbor closest to the destination, and on a local
// minimum a detour along the BOUNDHOLE hole boundary (the "boundary
// information [5]" the experiments construct for GF) until a node closer
// to the destination than the stuck node appears. Stuck nodes off any
// recorded boundary fall back to the untried right-hand ray sweep.
type GF struct {
	net *topo.Network
	b   *bound.Boundaries
	// TTLFactor overrides the hop budget (DefaultTTLFactor when 0).
	TTLFactor int
}

var _ Router = (*GF)(nil)
var _ ObservedRouter = (*GF)(nil)

// NewGF returns a GF router using the given boundary information (which
// may be nil; every detour then uses the ray-sweep fallback).
func NewGF(net *topo.Network, b *bound.Boundaries) *GF {
	return &GF{net: net, b: b}
}

// Name implements Router.
func (r *GF) Name() string { return "GF" }

// Route implements Router.
func (r *GF) Route(src, dst topo.NodeID) Result {
	return r.RouteInto(src, dst, nil)
}

// RouteInto implements Router.
func (r *GF) RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result {
	return r.RouteObserved(src, dst, pathBuf, nil)
}

// RouteObserved implements ObservedRouter.
func (r *GF) RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result {
	a := gfAlgPool.Get().(*gfAlg)
	a.b = r.b
	res := drive(r.net, a, src, dst, r.TTLFactor, pathBuf, obs)
	a.b = nil
	gfAlgPool.Put(a)
	return res
}

type gfAlg struct {
	b *bound.Boundaries
}

var gfAlgPool = sync.Pool{New: func() any { return new(gfAlg) }}

func (a *gfAlg) step(st *state) topo.NodeID {
	if neighborOfDst(st) {
		st.phase = PhaseGreedy
		return st.dst
	}
	// A fallback ray-sweep perimeter persists until the packet beats
	// the stuck node's distance.
	if st.perimeterActive {
		if st.perimeterDone() {
			st.perimeterActive = false
		} else {
			st.phase = PhasePerimeter
			return sweepUntried(st, RightHand, scanFilter{})
		}
	}
	// Exit an active detour as soon as the packet beats the stuck point.
	if st.detourHole >= 0 {
		if geom.Dist(st.net.Pos(st.cur), st.dstPos) < st.stuckDist {
			st.detourHole = -1
		} else {
			return a.detourStep(st)
		}
	}
	if v := greedyClosest(st); v != topo.NoNode {
		st.phase = PhaseGreedy
		return v
	}
	// Local minimum: start a boundary detour when boundary information
	// covers this node. Per the BOUNDHOLE routing of [5], the packet
	// follows the hole boundary in one direction — chosen locally by
	// whichever first hop sits closer to the destination — until a
	// closer-than-stuck node appears; a full fruitless lap (e.g. the
	// destination is inside the hole) abandons the walk and the hole is
	// not retried for this packet. GF has no global view of how holes
	// interact — exactly the weakness Fig. 1(a) illustrates and SLGF2's
	// either-hand rule addresses.
	st.stuckDist = geom.Dist(st.net.Pos(st.cur), st.dstPos)
	if a.b != nil {
		for _, h := range a.b.HolesAt(st.cur) {
			if _, failed := st.failedHoles[h.ID]; failed {
				continue
			}
			st.detourHole = h.ID
			st.detourDir = a.pickDirection(st, h)
			st.detourSteps = 0
			return a.detourStep(st)
		}
	}
	// No boundary info: untried right-hand sweep.
	st.enterPerimeter()
	st.phase = PhasePerimeter
	return sweepUntried(st, RightHand, scanFilter{})
}

// pickDirection compares the two boundary neighbors of the stuck node and
// walks toward the one closer to the destination — a purely local choice.
func (a *gfAlg) pickDirection(st *state, h *bound.Hole) int {
	fwd, okF := bound.FollowBoundary(h, st.cur, +1)
	bwd, okB := bound.FollowBoundary(h, st.cur, -1)
	switch {
	case okF && !okB:
		return +1
	case okB && !okF:
		return -1
	case !okF && !okB:
		return +1
	}
	if geom.Dist2(st.net.Pos(bwd), st.dstPos) < geom.Dist2(st.net.Pos(fwd), st.dstPos) {
		return -1
	}
	return +1
}

func (a *gfAlg) detourStep(st *state) topo.NodeID {
	st.phase = PhasePerimeter
	h := a.holeByID(st.detourHole)
	if h == nil {
		return a.abandonDetour(st)
	}
	next, ok := bound.FollowBoundary(h, st.cur, st.detourDir)
	st.detourSteps++
	// A full lap without progress means the boundary cannot help
	// (destination inside the hole or disconnected): fall back.
	if !ok || st.detourSteps > h.Len() || next == st.cur {
		return a.abandonDetour(st)
	}
	return next
}

// abandonDetour switches from a failed boundary walk to the persistent
// untried ray sweep, blacklisting the hole for this packet.
func (a *gfAlg) abandonDetour(st *state) topo.NodeID {
	st.failedHoles[st.detourHole] = struct{}{}
	st.detourHole = -1
	st.enterPerimeter()
	return sweepUntried(st, RightHand, scanFilter{})
}

func (a *gfAlg) holeByID(id int) *bound.Hole {
	if a.b == nil || id < 0 || id >= len(a.b.Holes) {
		return nil
	}
	return a.b.Holes[id]
}
