package core

import (
	"github.com/straightpath/wasn/internal/topo"
)

// LGF is Algorithm 1: limited geographic greedy forwarding. The greedy
// phase only considers successors inside the request zone Z(u, d) (LAR
// scheme 1); on a local minimum the perimeter phase rotates the ray ud
// counter-clockwise (the right-hand rule) until the first untried
// neighbor is hit.
type LGF struct {
	net *topo.Network
	// TTLFactor overrides the hop budget (DefaultTTLFactor when 0).
	TTLFactor int
}

var _ Router = (*LGF)(nil)
var _ ObservedRouter = (*LGF)(nil)

// NewLGF returns an LGF router over net.
func NewLGF(net *topo.Network) *LGF { return &LGF{net: net} }

// Name implements Router.
func (r *LGF) Name() string { return "LGF" }

// Route implements Router.
func (r *LGF) Route(src, dst topo.NodeID) Result {
	return r.RouteInto(src, dst, nil)
}

// RouteInto implements Router. lgfAlg is stateless and zero-size, so the
// interface conversion does not allocate.
func (r *LGF) RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result {
	return drive(r.net, lgfAlg{}, src, dst, r.TTLFactor, pathBuf, nil)
}

// RouteObserved implements ObservedRouter.
func (r *LGF) RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result {
	return drive(r.net, lgfAlg{}, src, dst, r.TTLFactor, pathBuf, obs)
}

type lgfAlg struct{}

func (lgfAlg) step(st *state) topo.NodeID {
	// Step 1: deliver directly when in range.
	if neighborOfDst(st) {
		st.phase = PhaseGreedy
		return st.dst
	}
	// An active perimeter phase persists until the packet is closer to
	// the destination than the stuck node that started it.
	if st.perimeterActive && st.perimeterDone() {
		st.perimeterActive = false
	}
	if !st.perimeterActive {
		// Steps 2-3: greedy advance within the request zone.
		if v := greedyInRequestZone(st, scanFilter{}); v != topo.NoNode {
			st.phase = PhaseGreedy
			return v
		}
		st.enterPerimeter()
	}
	// Step 4: perimeter routing by the right-hand rule.
	st.phase = PhasePerimeter
	return sweepUntried(st, RightHand, scanFilter{})
}
