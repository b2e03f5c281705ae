package core

import (
	"sync"

	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// SLGF is the safety-information LGF of the authors' earlier work
// (INFOCOM'08, the paper's [7]): the greedy phase only accepts request-
// zone successors that are safe toward the destination — which, by
// Theorem 1, guarantees the greedy advance never hits a local minimum —
// and anything else (unsafe source neighborhoods, unsafe destinations)
// falls back to the plain right-hand perimeter sweep without further
// safety guidance.
type SLGF struct {
	net *topo.Network
	m   *safety.Model
	// TTLFactor overrides the hop budget (DefaultTTLFactor when 0).
	TTLFactor int
}

var _ Router = (*SLGF)(nil)
var _ ObservedRouter = (*SLGF)(nil)

// NewSLGF returns an SLGF router over net using the prebuilt model.
func NewSLGF(net *topo.Network, m *safety.Model) *SLGF {
	return &SLGF{net: net, m: m}
}

// Name implements Router.
func (r *SLGF) Name() string { return "SLGF" }

// Route implements Router.
func (r *SLGF) Route(src, dst topo.NodeID) Result {
	return r.RouteInto(src, dst, nil)
}

// RouteInto implements Router.
func (r *SLGF) RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result {
	return r.RouteObserved(src, dst, pathBuf, nil)
}

// RouteObserved implements ObservedRouter.
func (r *SLGF) RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result {
	a := slgfAlgPool.Get().(*slgfAlg)
	a.m = r.m
	res := drive(r.net, a, src, dst, r.TTLFactor, pathBuf, obs)
	a.m = nil
	slgfAlgPool.Put(a)
	return res
}

type slgfAlg struct {
	m *safety.Model
}

var slgfAlgPool = sync.Pool{New: func() any { return new(slgfAlg) }}

func (a *slgfAlg) step(st *state) topo.NodeID {
	if neighborOfDst(st) {
		st.phase = PhaseGreedy
		return st.dst
	}
	if st.perimeterActive && st.perimeterDone() {
		st.perimeterActive = false
	}
	if !st.perimeterActive {
		// Safe forwarding: greedy within the forwarding zone over nodes
		// that are safe toward d (Theorem 1 guards exactly this step),
		// tested against the model's packed mask export.
		if v := greedyInForwardingZone(st, scanFilter{masks: a.m.SafeMasks()}); v != topo.NoNode {
			st.phase = PhaseGreedy
			return v
		}
		st.enterPerimeter()
	}
	// Perimeter routing without safety information.
	st.phase = PhasePerimeter
	return sweepUntried(st, RightHand, scanFilter{})
}
