// Package fleet is the distribution layer over internal/serve: the
// pieces that turn one wasnd process into a sharded fleet of them.
//
// Three building blocks compose, each independently testable:
//
//   - The shard map (Map): a consistent-hash ring with virtual nodes
//     partitioning deployments across replicas. The router serves it at
//     /shardmap; the workload HTTP driver (-driver fleet) consumes it
//     client-side and re-resolves it when a replica dies.
//
//   - Registry snapshots (Snapshot): a versioned, checksummed binary
//     encoding of every deployment's spec plus its failed/moved state
//     and epoch (serve.DeploymentState). A restarted replica restores
//     it from disk (Snapshotter); the router pushes it to a
//     deployment's new owner on re-shard (/restore). Restoring is
//     route-identical: the restored replica rebuilds substrates over
//     the snapshot's exact topology, and the repair≡rebuild
//     differential contract makes its routes bit-identical to the
//     origin's for all seven algorithms.
//
//   - The binary batch transport (BinaryServer, Client): length-
//     prefixed frames over persistent TCP with streamed batch
//     responses, replacing per-request JSON/HTTP for /batch-shaped
//     traffic. The HTTP/JSON API stays as the compatibility surface.
//
// The Router ties them together as a thin proxy tier: replicas join
// it, it health-checks them, forwards data-plane requests to each
// deployment's owner, tracks the fleet's desired state (specs + churn
// + moves, each accepted mutation folded in with
// serve.DeploymentState.Apply), and on replica death re-shards and
// re-establishes the displaced deployments on their new owners from
// its state table.
package fleet
