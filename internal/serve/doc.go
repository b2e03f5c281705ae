// Package serve is the routing-as-a-service layer: a long-lived,
// concurrent service that answers many route queries over shared
// deployed-network state, the workload the paper's §1 streaming
// application implies. It stacks four pieces:
//
//   - a deployment registry of named (model, n, seed) deployments whose
//     routing substrates (safety model, BOUNDHOLE boundaries, Gabriel
//     graph, routers) are built lazily and deduplicated with
//     singleflight, so a stampede of first requests builds each
//     substrate exactly once;
//   - a sharded, set-associative route cache keyed by (deployment,
//     epoch, algorithm, src, dst) with hit/miss/eviction counters: a
//     fixed array of pointer-free slots per shard, 8-way sets evicting
//     their least recently used slot (so eviction is LRU within a set
//     and can start before the cache is full), each slot holding the
//     aggregate outcome only (no paths), keeping cache memory flat;
//   - a batch engine fanning request slices across a worker pool while
//     preserving request order, each worker routing into its own
//     reusable path buffer (Router.RouteInto), so a warm batch performs
//     no per-route allocation;
//   - HTTP/JSON handlers (see handler.go) that cmd/wasnd serves — the
//     endpoint reference with curl examples lives in cmd/wasnd/README.md.
//
// # Topology changes
//
// Node failures, revivals and moves all arrive as one Mutation value
// and take one path, Service.Mutate: under the per-deployment write
// lock it applies the change and repairs all three substrates
// incrementally in place (core.RepairSubstrates for liveness changes,
// core.RepairSubstratesMoved for moves). The safety relabeling is
// seeded from the changed neighborhood, BOUNDHOLE re-analyzes only that
// neighborhood before re-deriving its walks, and the Gabriel graph
// recomputes only the affected rows. The routers hold pointers into the substrates and
// observe the repair without being rebuilt. Repair latency therefore
// scales with the changed neighborhood, not the deployment size; the
// core differential and fuzz batteries pin each repaired substrate to
// a from-scratch build.
//
// After the repair the deployment epoch is bumped — the epoch is part
// of every cache key, so all previously cached routes of the deployment
// become unreachable at once — and the stale entries are purged
// eagerly.
package serve
