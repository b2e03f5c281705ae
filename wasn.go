// Package wasn reproduces "A Straightforward Path Routing in Wireless Ad
// Hoc Sensor Networks" (Jiang, Ma, Lou, Wu; IEEE ICDCS Workshops 2009) as
// a Go library: the SLGF2 safety-information routing, its baselines (GF
// with BOUNDHOLE boundaries, LGF, SLGF), the safety information model,
// and the full experiment harness regenerating the paper's Figs. 5-7.
//
// This root package is the facade a downstream user starts from:
//
//	dep, _ := wasn.Deploy(wasn.FA, 500, 42)
//	sim, _ := wasn.NewSim(dep)
//	res := sim.Route(wasn.SLGF2, src, dst)
//	fmt.Println(res.Hops(), res.Length)
//
// The building blocks live in internal packages (topo, safety, core,
// bound, planar, expt, ...) and are re-exported here through small
// wrappers; cmd/wasnsim regenerates every figure from the command line.
//
// # Serving routes
//
// Beyond one-shot simulation, the package serves route queries as a
// long-lived concurrent service: a deployment registry of named
// (model, n, seed) deployments built lazily (deduplicated with
// singleflight), a sharded, set-associative route cache (LRU within
// each 8-way set) invalidated on topology mutations, and a batch engine
// fanning requests across a worker pool.
//
//	svc := wasn.NewService()
//	name, _ := svc.Deploy("", wasn.DeploymentSpec{Model: wasn.FA, N: 500, Seed: 42})
//	res, cached, _ := svc.Route(name, string(wasn.SLGF2), 3, 441)
//	_ = svc.Fail(name, []wasn.NodeID{17})   // kills node 17, invalidates cached routes
//	http.ListenAndServe(":8080", svc.Handler())
//
// Node failures, revivals, and position changes (Service.Fail,
// Service.Revive, Service.Move, Sim.Fail, Sim.Move) repair the routing
// substrates incrementally in place — work scales with the changed
// neighborhood, not the network — and are differentially tested (and
// fuzzed) to match a from-scratch rebuild.
//
// cmd/wasnd serves the same service over HTTP/JSON (/deploy, /route,
// /batch, /fail, /revive, /move, /stats) and ships a scenario-driven load
// mode (wasnd -load, internal/workload): open-loop and bursty arrival
// processes, uniform/Zipf/convergecast traffic matrices, and timed
// churn schedules, driven in-process or over HTTP, reporting latency
// percentiles and per-phase delivery; see cmd/wasnd/README.md for the
// endpoint reference and scenario format, and ARCHITECTURE.md at the
// repository root for the package graph, the substrate build/repair
// lifecycle, and the cache invalidation story.
//
// Capacity is located rather than guessed: RunSweep (wasnd -sweep,
// internal/sweep) runs a scenario at a ladder of offered rates and
// emits a CapacityCurve marking the capacity knee and the p99 cliff,
// and scenario runs can be recorded to a (src, dst, intended-at)
// trace and replayed bit-for-bit on another build (wasnd -record /
// -replay) — the substrate of the CI perf-regression gate.
package wasn

import (
	"fmt"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/expt"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/sweep"
	"github.com/straightpath/wasn/internal/topo"
	"github.com/straightpath/wasn/internal/workload"
)

// Model selects a deployment model of §5.
type Model = topo.DeployModel

// Deployment models: IA is ideal uniform placement, FA adds random
// forbidden areas (large holes), OB scatters rectangular obstacles
// that nodes can neither occupy nor see through.
const (
	IA = topo.ModelIA
	FA = topo.ModelFA
	OB = topo.ModelOB
)

// Algorithm names a routing algorithm.
type Algorithm string

// The four §5 algorithms plus the extra baselines.
const (
	GF       Algorithm = "GF"
	LGF      Algorithm = "LGF"
	SLGF     Algorithm = "SLGF"
	SLGF2    Algorithm = "SLGF2"
	GPSR     Algorithm = "GPSR"
	IdealHop Algorithm = "Ideal-hops"
	IdealLen Algorithm = "Ideal-length"
)

// NodeID identifies a node.
type NodeID = topo.NodeID

// Move is one position update: node Node relocates to (X, Y).
type Move = topo.Move

// Result is a routing outcome.
type Result = core.Result

// Router routes single packets between nodes of one fixed network. Every
// router obtained from a Sim or Service is safe for concurrent use and
// routes with zero steady-state allocations; see the interface docs for
// the full concurrency and buffer-reuse (RouteInto) contract.
type Router = core.Router

// Network is the deployed WASN graph.
type Network = topo.Network

// Deployment is a generated network plus its forbidden areas.
type Deployment = topo.Deployment

// Deploy generates one random network with the paper's parameters
// (200x200 m field, 20 m radio range) for the given model, node count,
// and seed.
func Deploy(model Model, n int, seed uint64) (*Deployment, error) {
	return topo.Deploy(topo.DefaultDeployConfig(model, n, seed))
}

// Sim bundles one network with every prebuilt routing substrate: the
// safety information model, the BOUNDHOLE boundaries, and the Gabriel
// graph. The substrates are retained so Fail can repair them in place.
type Sim struct {
	Dep    *Deployment
	Safety *safety.Model

	bounds  *bound.Boundaries
	planarg *planar.Graph
	routers map[Algorithm]core.Router
}

// NewSim builds all routing substrates over a deployment. The three
// substrates (safety model, BOUNDHOLE boundaries, Gabriel graph) build
// concurrently, each internally parallel across GOMAXPROCS.
func NewSim(dep *Deployment) (*Sim, error) {
	if dep == nil || dep.Net == nil {
		return nil, fmt.Errorf("wasn: nil deployment")
	}
	net := dep.Net
	m, b, g := core.BuildSubstrates(net, true, true, true, nil)
	s := &Sim{
		Dep:     dep,
		Safety:  m,
		bounds:  b,
		planarg: g,
		routers: map[Algorithm]core.Router{
			GF:       core.NewGF(net, b),
			LGF:      core.NewLGF(net),
			SLGF:     core.NewSLGF(net, m),
			SLGF2:    core.NewSLGF2(net, m, core.WithPlanarGraph(g)),
			GPSR:     core.NewGPSR(net, g),
			IdealHop: core.NewIdeal(net, core.IdealMinHop),
			IdealLen: core.NewIdeal(net, core.IdealMinLength),
		},
	}
	return s, nil
}

// Fail kills the given nodes and repairs every substrate incrementally
// (core.RepairSubstrates): the safety relabeling is seeded from the
// failure neighborhood, BOUNDHOLE re-analyzes only that neighborhood
// and re-derives its walks from the successor table's orbits, and the
// Gabriel graph recomputes only the incident rows.
// The repaired substrates are identical to rebuilding the Sim from
// scratch over the damaged topology, and the repairs happen in place,
// so the Sim's routers serve the new topology immediately. Nodes that
// are already dead are ignored; nothing happens when none remain.
//
// Fail mutates the shared network and substrates and therefore must not
// run concurrently with Route calls (see the Router contract); the
// Service layer does this serialization for servers.
func (s *Sim) Fail(nodes ...NodeID) {
	fresh := make([]NodeID, 0, len(nodes))
	for _, u := range nodes {
		if s.Dep.Net.Alive(u) {
			s.Dep.Net.SetAlive(u, false)
			fresh = append(fresh, u)
		}
	}
	if len(fresh) == 0 {
		return
	}
	core.RepairSubstrates(s.Safety, s.bounds, s.planarg, fresh)
}

// Move relocates nodes and repairs every substrate incrementally over
// the geometric dirty set the CSR rewrite reports
// (core.RepairSubstratesMoved): each substrate recomputes only the
// moved nodes' neighborhoods, and the result is identical to rebuilding
// the Sim from scratch at the new positions — the same differential
// contract as Fail. Dead nodes may move; liveness is orthogonal to
// position.
//
// Like Fail, Move mutates the shared network and substrates and must
// not run concurrently with Route calls; the Service layer serializes
// this for servers.
func (s *Sim) Move(moves ...Move) error {
	dirty, err := s.Dep.Net.SetPositions(moves)
	if err != nil {
		return err
	}
	if len(dirty) > 0 {
		core.RepairSubstratesMoved(s.Safety, s.bounds, s.planarg, dirty)
	}
	return nil
}

// Net returns the underlying network.
func (s *Sim) Net() *Network { return s.Dep.Net }

// Router returns the named router (nil for unknown names).
func (s *Sim) Router(alg Algorithm) core.Router { return s.routers[alg] }

// Route routes one packet with the named algorithm. Unknown algorithms
// return an undelivered result.
func (s *Sim) Route(alg Algorithm, src, dst NodeID) Result {
	r, ok := s.routers[alg]
	if !ok {
		return Result{Reason: core.DropNoCandidate}
	}
	return r.Route(src, dst)
}

// Algorithms lists the available algorithm names in the figure-legend
// order.
func (s *Sim) Algorithms() []Algorithm {
	return []Algorithm{GF, LGF, SLGF, SLGF2, GPSR, IdealHop, IdealLen}
}

// Service is the concurrent routing service: deployment registry,
// sharded set-associative route cache (LRU within each 8-way set, so
// eviction can start before the cache is full), batch engine, and HTTP
// handlers. All methods are safe for concurrent use. See the "Serving
// routes" section above.
type Service = serve.Service

// ServiceConfig tunes a Service; the zero value is production-ready.
type ServiceConfig = serve.Config

// DeploymentSpec names a reproducible deployment for Service.Deploy.
type DeploymentSpec = serve.Spec

// RouteRequest is one query of a Service.Batch call.
type RouteRequest = serve.RouteRequest

// RouteResponse is the outcome of one batched query.
type RouteResponse = serve.RouteResponse

// ServiceStats is a snapshot of the service counters.
type ServiceStats = serve.Stats

// NewService builds a routing service. With no arguments the default
// configuration is used; pass one ServiceConfig to tune the cache and
// worker pool.
func NewService(cfg ...ServiceConfig) *Service {
	var c ServiceConfig
	if len(cfg) > 0 {
		c = cfg[0]
	}
	return serve.New(c)
}

// ServiceAlgorithms lists the algorithm names a Service routes with.
func ServiceAlgorithms() []string { return serve.Algorithms() }

// Scenario is one complete workload description: a deployment, an
// arrival process, a traffic matrix, and an optional churn schedule.
// Build one as a literal, or parse a JSON file with
// workload.ParseFile via cmd/wasnd.
type Scenario = workload.Scenario

// LoadReport is the outcome of one scenario run: latency quantiles
// measured from intended arrivals, per-churn-phase delivery, a
// throughput timeline, and the server's own counters.
type LoadReport = workload.Report

// RunScenario executes one workload scenario against a private
// in-process routing service and returns its report. cmd/wasnd -load
// exposes the same engine with driver selection (in-process or HTTP)
// and trace recording.
func RunScenario(sc *Scenario) (*LoadReport, error) {
	drv := workload.NewInProcess(serve.New(serve.Config{}))
	defer drv.Close()
	return workload.Run(drv, sc)
}

// SweepConfig describes a capacity sweep: a base open-loop scenario
// run at a geometric (or knee-bisecting) ladder of offered rates.
type SweepConfig = sweep.Config

// CapacityCurve is a sweep's single JSON artifact: per-rung achieved
// throughput, latency quantiles, delivery rate, and cached share,
// plus the detected capacity knee and p99 cliff. Curves from two
// builds are comparable with sweep.Compare — the CI perf gate.
type CapacityCurve = sweep.CapacityCurve

// RunSweep runs a capacity sweep against a private in-process routing
// service and returns the curve. cmd/wasnd -sweep exposes the same
// engine with driver selection and baseline gating.
func RunSweep(cfg *SweepConfig) (*CapacityCurve, error) {
	drv := workload.NewInProcess(serve.New(serve.Config{}))
	defer drv.Close()
	return sweep.Run(drv, cfg, sweep.Options{})
}

// RunFigure regenerates one paper figure (5, 6, or 7) for the given
// model and returns the table as text. networks and pairs scale the
// sweep (the paper uses networks=100).
func RunFigure(figure int, model Model, networks, pairs int) (string, error) {
	var metric expt.Metric
	switch figure {
	case 5:
		metric = expt.MetricMaxHops
	case 6:
		metric = expt.MetricAvgHops
	case 7:
		metric = expt.MetricAvgLength
	default:
		return "", fmt.Errorf("wasn: unknown figure %d (want 5, 6, or 7)", figure)
	}
	sweep, err := expt.Run(expt.DefaultConfig(model, networks, pairs))
	if err != nil {
		return "", err
	}
	return sweep.Table(metric).Text(), nil
}
