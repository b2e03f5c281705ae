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
//     fixed array of pointer-free slots per shard, allocated by the
//     shard's first insert, 8-way sets evicting their least recently
//     used slot (so eviction is LRU within a set and can start before
//     the cache is full), each slot holding the aggregate outcome only
//     (no paths), keeping cache memory flat;
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
// and take one path, Service.Mutate. A built deployment is an immutable
// version — network, substrates, routers, and the portable state with
// its epoch — published through one atomic pointer. Reads load the
// pointer once and take no lock. A mutation, under a writer-only mutex,
// clones the current version's network and substrates, applies the
// change to the clone, repairs its substrates incrementally in place
// (core.RepairSubstrates for liveness changes,
// core.RepairSubstratesMoved for moves), builds routers over it and
// publishes it with the next epoch. The safety relabeling is seeded
// from the changed neighborhood, BOUNDHOLE re-analyzes only that
// neighborhood before re-deriving its walks, and the Gabriel graph
// recomputes only the affected rows; the core differential and fuzz
// batteries pin each repaired substrate to a from-scratch build. A read
// that overlaps a mutation answers from the previous version.
//
// The epoch is part of every cache key, so publishing a version makes
// every route cached under the previous one unreachable at once; a
// route's stale entry is overwritten in place when it is recomputed.
// Every route response carries the epoch that answered it, and a batch
// answers from one version per deployment.
package serve
