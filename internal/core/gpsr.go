package core

import (
	"sync"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/topo"
)

// GPSR is the classical greedy + face-routing comparison point (Karp &
// Kung; the perimeter mechanism is Bose–Morin–Stojmenović's face walk,
// the paper's reference [2]): greedy forwarding until a local minimum,
// then a right-hand face walk on a planar subgraph, returning to greedy
// at any node closer to the destination than the stuck point.
type GPSR struct {
	net *topo.Network
	g   *planar.Graph
	// TTLFactor overrides the hop budget (DefaultTTLFactor when 0).
	TTLFactor int
}

var _ Router = (*GPSR)(nil)
var _ ObservedRouter = (*GPSR)(nil)

// NewGPSR returns a GPSR router over net using the given planar subgraph
// (typically planar.Build(net, planar.GabrielGraph)).
func NewGPSR(net *topo.Network, g *planar.Graph) *GPSR {
	return &GPSR{net: net, g: g}
}

// Name implements Router.
func (r *GPSR) Name() string { return "GPSR" }

// Route implements Router.
func (r *GPSR) Route(src, dst topo.NodeID) Result {
	return r.RouteInto(src, dst, nil)
}

// RouteInto implements Router.
func (r *GPSR) RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result {
	return r.RouteObserved(src, dst, pathBuf, nil)
}

// RouteObserved implements ObservedRouter.
func (r *GPSR) RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result {
	a := gpsrAlgPool.Get().(*gpsrAlg)
	a.g = r.g
	a.perimeter = false
	a.stuckPos = geom.Point{}
	a.stuckDist = 0
	clear(a.visited)
	res := drive(r.net, a, src, dst, r.TTLFactor, pathBuf, obs)
	a.g = nil
	gpsrAlgPool.Put(a)
	return res
}

type gpsrAlg struct {
	g *planar.Graph

	perimeter bool
	// hop is the slot of the last face hop, the one the packet arrived
	// over while in perimeter mode.
	hop       int32
	stuckPos  geom.Point
	stuckDist float64
	// visited records directed planar edges walked in the current
	// perimeter phase; repeating one means the destination is
	// unreachable from this face structure. Retained across pooled
	// routes, cleared per perimeter phase.
	visited map[[2]topo.NodeID]bool
}

var gpsrAlgPool = sync.Pool{New: func() any {
	return &gpsrAlg{visited: make(map[[2]topo.NodeID]bool)}
}}

func (a *gpsrAlg) step(st *state) topo.NodeID {
	if neighborOfDst(st) {
		st.phase = PhaseGreedy
		return st.dst
	}
	if a.perimeter {
		if geom.Dist(st.net.Pos(st.cur), st.dstPos) < a.stuckDist {
			a.perimeter = false // recovered: closer than the stuck point
		} else {
			return a.faceStep(st)
		}
	}
	if v := greedyClosest(st); v != topo.NoNode {
		st.phase = PhaseGreedy
		return v
	}
	// Local minimum: enter perimeter mode on the planar graph.
	a.perimeter = true
	a.stuckPos = st.net.Pos(st.cur)
	a.stuckDist = geom.Dist(a.stuckPos, st.dstPos)
	clear(a.visited)
	st.phase = PhasePerimeter
	return a.claimHop(st, a.g.FaceStep(st.cur, -1, geom.Angle(a.stuckPos, st.dstPos), true))
}

// faceStep continues the face walk from the slot the packet arrived
// over: every hop since perimeter mode began was a face hop.
func (a *gpsrAlg) faceStep(st *state) topo.NodeID {
	st.phase = PhasePerimeter
	return a.claimHop(st, a.g.FaceStep(st.cur, st.net.AdjReverse(a.hop), 0, true))
}

// claimHop takes the face hop in slot s, recording its directed edge,
// and drops the packet when there is none or the walk repeats one
// (unreachable destination), the standard GPSR termination criterion.
func (a *gpsrAlg) claimHop(st *state, s int32) topo.NodeID {
	if s < 0 {
		return topo.NoNode
	}
	v := st.net.AdjHead(s)
	key := [2]topo.NodeID{st.cur, v}
	if a.visited[key] {
		return topo.NoNode
	}
	a.visited[key] = true
	a.hop = s
	return v
}
