// Package bound implements the hole-boundary machinery of Fang, Gao and
// Guibas, "Locating and Bypassing Routing Holes in Sensor Networks"
// (INFOCOM 2004) — the paper's reference [5]. The experimental section of
// the reproduced paper constructs this "boundary information ... for GF
// routings" before measuring routing performance, so the GF baseline here
// consults these boundaries when it hits a local minimum.
//
// Two pieces: the TENT rule ([Tent], [StuckNodes]), a local geometric
// test marking nodes that can be stuck (local minima of greedy
// forwarding) in some direction, and BOUNDHOLE ([FindHoles]), a
// traversal that walks the closed boundary of the hole adjoining each
// stuck direction.
//
// # Lifecycle: build once, repair on change
//
// A BOUNDHOLE step is a pure function of the directed edge it arrived
// on: from the back-edge cur→prev, sweep clockwise at cur, skipping
// prev (bouncing back to it at a dead end). [Boundaries] keep that
// function as a persistent successor table over the network's CSR edge
// slots — out[b] is the next boundary edge for back-edge slot b, rev[s]
// the reverse of edge s — so after the first hop every walk step is two
// lookups plus a visited-edge stamp. A row of out lies entirely in one
// node's CSR row and reads only that row's geometry and its neighbors'
// liveness.
//
// [FindHoles] is the full build: the successor table and TENT on every
// node (both parallel across GOMAXPROCS), one walk per stuck interval
// (parallel, one scratch tracer per worker), then an assembly pass that
// deduplicates holes claiming the same directed boundary edges, replaying
// each kept cycle's edges from the table. The returned [Boundaries]
// retain every walk outcome together with the set of nodes each walk
// swept.
//
// Repairs exploit that TENT, the table rows and the walks are all
// neighborhood-local, and differ per kind only in what they invalidate:
//
//   - Fail/revive of x ([Boundaries.Repair]): SetAlive leaves the CSR
//     layout alone, so rev stays valid and only the out rows of {x} ∪
//     N(x) — the rows that list x as a sweep candidate — are recomputed.
//     TENT re-runs on the same nodes. A failure re-walks the walks that
//     visited x (a removed candidate changes a sweep only where it won);
//     a revival re-walks those that swept any node of {x} ∪ N(x).
//   - Move ([Boundaries.RepairMoved]): SetPositions moves slots, so the
//     out rows of the geometric dirty set are recomputed, clean rows are
//     shifted by their row's offset delta, and rev is re-derived. TENT
//     re-runs on the dirty set and the walks that swept a dirty node
//     re-walk.
//
// A re-walk that reproduces its cached record keeps it and allocates
// nothing. The assembly then replays from the cache, so a repair yields
// boundaries identical to a from-scratch FindHoles on the mutated
// network — hole ids, cycles, bounding boxes and message counts
// included — at a cost that scales with the changed neighborhood and
// the boundaries through it. The serving layer's mutations and the
// facade's Sim.Fail route through these repairs via
// core.RepairSubstrates and core.RepairSubstratesMoved.
package bound
