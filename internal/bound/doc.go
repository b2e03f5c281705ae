// Package bound implements the hole-boundary machinery of Fang, Gao and
// Guibas, "Locating and Bypassing Routing Holes in Sensor Networks"
// (INFOCOM 2004) — the paper's reference [5]. The experimental section of
// the reproduced paper constructs this "boundary information ... for GF
// routings" before measuring routing performance, so the GF baseline here
// consults these boundaries when it hits a local minimum.
//
// Two pieces: the TENT rule ([Tent]), a local geometric
// test marking nodes that can be stuck (local minima of greedy
// forwarding) in some direction, and BOUNDHOLE ([FindHoles]), a
// traversal that walks the closed boundary of the hole adjoining each
// stuck direction.
//
// # Lifecycle: build once, repair on change
//
// A BOUNDHOLE step is a pure function of the directed edge (dart) it
// arrived on: from the back-edge cur→prev, sweep clockwise at cur,
// skipping prev (bouncing back to it at a dead end). [Boundaries] keep
// that function as a successor table over the network's CSR edge slots
// — σ(s) = b + out[b] for b = rev[s], the reverse slot the network
// keeps (topo.Network.AdjReverse), where out[b] is the successor's
// column less the back-edge's — whose row at a node reads only that
// node's row geometry and its neighbors' liveness.
//
// A walk from stuck node t0 follows σ from its first-hop dart and closes
// at the first dart whose head is t0: the dart before the next one whose
// tail is t0. So one O(live darts) pass that labels σ's cycles (orbits)
// and, per dart, the distance to the next dart with the same tail,
// resolves every walk in O(1): its length is a lookup and its cycle a
// range of the orbit. The dedup claims ranges of a bitset over the
// orbits, in the protocol's discovery order (nodes ascending, intervals
// in TENT order, first claim of a directed edge wins, dropped duplicates
// claiming too), and only kept holes materialize their cycle.
//
// σ is a bijection except at sweep ties: when two neighbors of a node
// share a bearing (nodes clamped onto a field edge, say), two back-edges
// get one successor and the darts upstream of the merge lie off every
// cycle. A walk starting there is stepped explicitly, stopping when it
// comes round its cycle or passes the length cap.
//
// Every per-node step reads the row's rotation, the network's per-row
// order of columns by bearing (topo.Network.AdjacencyRotation), rather
// than sorting or scanning the row: the successor of a back-edge and a
// stuck interval's first hop are the network's rotation step
// (topo.Network.RotationStep) clockwise from the back-edge's bearing,
// skipping it, and from the interval's middle bearing, and TENT's
// directions are the rotation with near-equal bearings merged in one
// linear pass. The sort-based TENT and the row-scan sweep they replaced
// are the test oracles.
//
// [FindHoles] fills the table and runs TENT plus the first-hop sweeps on
// every node in one pass parallel across GOMAXPROCS, then derives the
// holes from the orbits. A repair recomputes the table rows, TENT and
// first hops only where they changed, then derives again:
//
//   - Fail/revive of x ([Boundaries.Repair]): SetAlive leaves the CSR
//     layout alone; the nodes of {x} ∪ N(x) are recomputed.
//   - Move ([Boundaries.RepairMoved]): SetPositions moves slots and
//     re-derives rev itself; the table follows the CSR to its new
//     layout (topo.SlotTable.Relayout: successors and first hops are
//     row-relative, so clean rows shift verbatim) and the
//     geometric dirty set is recomputed.
//
// The result is identical to a from-scratch FindHoles on the mutated
// network — hole ids, cycles, bounding boxes and message counts
// included. The serving layer's mutations and the facade's Sim.Fail
// route through these repairs via core.RepairSubstrates and
// core.RepairSubstratesMoved.
package bound
