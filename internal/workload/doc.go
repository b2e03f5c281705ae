// Package workload is the scenario-driven load engine for the routing
// service: the instrument every scale change is measured with.
//
// A Scenario composes four orthogonal pieces:
//
//   - an arrival process — closed-loop (fixed concurrency, think
//     benchmark), open-loop Poisson at a target rate (think sensor
//     field), or bursty on/off modulation of a Poisson stream (think
//     event-driven reporting);
//   - a traffic matrix — uniform random routable pairs, Zipf-skewed
//     hotspot destinations, or convergecast (every source reports to
//     its nearest of K sinks, the paper-native many-to-one pattern);
//   - a churn schedule — timed fail/revive mutations injected mid-run,
//     driving the incremental substrate-repair path under live load,
//     and optionally mobility: seeded move batches every interval;
//   - a driver — in-process against a serve.Service, or HTTP over
//     keep-alive connections against a running wasnd or a fleet
//     router's proxy tier; the same HTTP driver given the router's
//     shard map (NewFleet) routes replica-direct instead.
//
// Run executes a scenario and produces a Report: log-bucketed latency
// quantiles (p50/p90/p99/p99.9, measured from the request's *intended*
// arrival time so queueing delay is charged under overload — no
// coordinated omission), a throughput timeline, per-phase delivery
// rates split at each churn event, and the server's own counters
// (cache hit rate, per-deployment repair counts). Reports serialize to
// JSON (wasnd -load -out), which wasnd -render draws as a figure.
//
// Every scheduled topology change is one firing: the serve.Mutations it
// applies at its offset, and whether it ends a report phase (churn does,
// mobility does not). The churn plan is resolved before the run, its
// dead set folded with serve.DeploymentState.Apply; mobility batches
// are drawn lazily, one ahead of the clock. One goroutine merges the
// two in time order, churn first at a tie, and fires each through the
// driver; Replay fires a trace's mutation lines through the same path.
//
// Scenarios are defined as JSON documents (ParseFile) or taken from
// the canned presets (Preset): steady, hotspot, convergecast, and
// churn-storm. cmd/wasnd's -load flag is a thin shim over this
// package.
//
// Runs can be captured and reproduced: a Recorder wrapped around
// either driver persists the exact (src, dst, intended-at) request
// stream and the applied mutations to a time-sorted JSONL trace, and
// Replay re-issues a trace bit-for-bit — mutation lines act as barriers,
// so replay outcomes are deterministic and a regression seen once can
// be replayed against any build (cmd/wasnd -record / -replay;
// internal/sweep builds its capacity ladders on the same engine).
package workload
