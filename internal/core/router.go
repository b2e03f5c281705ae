// Package core implements the routing algorithms of the paper: the
// baselines GF (greedy forwarding with BOUNDHOLE boundary detours), LGF
// (request-zone-limited greedy forwarding, Algorithm 1) and SLGF (the
// safety-information LGF of the authors' earlier work), and the paper's
// contribution SLGF2 (Algorithm 3) with its safe-forwarding, backup-path
// and confined perimeter phases steered by the either-hand rule. A
// GPSR-style greedy+face router and exact shortest-path references are
// included for comparison.
//
// Every router is a per-hop decision procedure: the driver asks the
// algorithm for the successor of the current node until the destination
// is reached, the TTL expires, or the algorithm reports no candidate.
package core

import (
	"fmt"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// Phase labels the forwarding mode that selected a hop, for the
// per-phase accounting the evaluation reports.
type Phase int

// Phases, in escalation order.
const (
	PhaseGreedy Phase = iota + 1
	PhaseBackup
	PhasePerimeter

	// NumPhases is the number of distinct phases.
	NumPhases = int(PhasePerimeter)
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseGreedy:
		return "greedy"
	case PhaseBackup:
		return "backup"
	case PhasePerimeter:
		return "perimeter"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// DropReason explains a failed routing.
type DropReason int

// Drop reasons. DropNone marks delivered packets.
const (
	DropNone DropReason = iota
	DropTTL
	DropNoCandidate
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "delivered"
	case DropTTL:
		return "ttl-exceeded"
	case DropNoCandidate:
		return "no-candidate"
	default:
		return fmt.Sprintf("drop(%d)", int(r))
	}
}

// PhaseCounts counts hops per phase, indexed by Phase (index 0 is
// unused; phases start at PhaseGreedy == 1). A fixed array instead of a
// map keeps Result allocation-free (and PhaseCounts itself comparable).
type PhaseCounts [NumPhases + 1]int

// Total returns the hop count across all phases.
func (c PhaseCounts) Total() int {
	t := 0
	for _, v := range c {
		t += v
	}
	return t
}

// Result is the outcome of routing one packet.
type Result struct {
	// Path holds every node the packet visited, source first. Nodes can
	// repeat (perimeter phases may backtrack). When the route was issued
	// through RouteInto, Path aliases the caller's buffer.
	Path []topo.NodeID
	// Delivered reports whether the packet reached the destination.
	Delivered bool
	// Reason is DropNone when delivered.
	Reason DropReason
	// Length is the total Euclidean distance traveled.
	Length float64
	// PhaseHops counts hops per phase.
	PhaseHops PhaseCounts
}

// Hops returns the hop count of the traveled path. Results whose Path
// has been dropped (the serve layer's route cache stores only the
// aggregate outcome) still report the true count via the per-phase
// totals, which every router maintains hop-for-hop.
func (r Result) Hops() int {
	if len(r.Path) == 0 {
		return r.PhaseHops.Total()
	}
	return len(r.Path) - 1
}

// Router routes single packets between nodes of one fixed network.
//
// Every Router in this package is safe for concurrent use: all
// per-packet scratch lives in pooled per-route state (SLGF2's lazy
// planar substrate is built under a sync.Once), so any number of
// goroutines may route over one router simultaneously — provided nothing
// mutates its network or substrates (SetAlive, SetPositions, the
// substrate repairs) while routes are in flight. A caller that changes
// the topology at runtime either serializes the mutation against
// routing or never mutates what a router reads: the serve package
// clones the network and substrates (the Clone methods of topo, safety,
// bound and planar), repairs the clone, builds a new router set over it
// and publishes that, so its readers take no lock.
//
// Steady-state routing performs zero allocations per hop decision: the
// visited bookkeeping, queues, and candidate buffers come from
// sync.Pool-managed scratch that is cleared and reused across routes.
// Route allocates only the Result's path slice; RouteInto with a reused
// buffer eliminates that too.
type Router interface {
	// Name identifies the algorithm ("GF", "LGF", "SLGF", "SLGF2", ...).
	Name() string
	// Route routes one packet from src to dst.
	Route(src, dst topo.NodeID) Result
	// RouteInto routes one packet from src to dst, appending the
	// traveled path into pathBuf[:0] (the Result's Path then aliases
	// pathBuf's backing array, which must not be reused until the
	// Result is consumed). A nil pathBuf behaves like Route. Passing a
	// reused buffer makes steady-state routing allocation-free.
	RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result
}

// HopObserver receives every hop decision of an observed route as it
// is made: hop seq (1-based), the nodes involved, and the phase that
// selected it. Observers must not route through the same router
// recursively and must not retain references past the Route call.
//
// The observer hook is the zero-cost-when-off tracing path: routers
// consult it with one nil check per hop, so routing without an
// observer performs exactly as before (the 0 allocs/op benchmarks
// pin this). The trace package's pooled Recorder is the canonical
// implementation; the serve layer samples it at a configurable rate
// and wires it to /route?trace=true.
type HopObserver interface {
	// ObserveHop reports that hop seq moved the packet from->to under
	// phase.
	ObserveHop(seq int, from, to topo.NodeID, phase Phase)
}

// ObservedRouter extends Router with per-hop decision observation.
// Every router in this package implements it; external callers
// type-assert from Router.
type ObservedRouter interface {
	Router
	// RouteObserved is RouteInto with every hop decision reported to
	// obs (nil behaves exactly like RouteInto).
	RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result
}

// Hand selects the ray-rotation direction of detour sweeps. The paper's
// "right-hand rule" [2] rotates the ray ud counter-clockwise until the
// first untried neighbor is hit (Algorithm 1); the left-hand rule is the
// mirror image. The either-hand rule of SLGF2 picks whichever hand keeps
// the routing on the destination's (critical) side of a blocking area and
// then sticks with it.
type Hand int

// Hands. HandNone means "not committed yet".
const (
	HandNone  Hand = 0
	RightHand Hand = iota // counter-clockwise ray rotation
	LeftHand              // clockwise ray rotation
)

// String implements fmt.Stringer.
func (h Hand) String() string {
	switch h {
	case RightHand:
		return "right"
	case LeftHand:
		return "left"
	case HandNone:
		return "none"
	default:
		return fmt.Sprintf("hand(%d)", int(h))
	}
}

// sweepDelta returns how far the ray must rotate from angle `from` to hit
// angle `to` under the hand's rotation direction.
func (h Hand) sweepDelta(from, to float64) float64 {
	if h == LeftHand {
		return geom.CWDelta(from, to)
	}
	return geom.CCWDelta(from, to)
}

// DefaultTTLFactor scales the per-packet hop budget: TTL = factor * |V|.
const DefaultTTLFactor = 4
