package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// The fixture is one fixed deployment: FA-800 with deployment seed 42.
// The --seed argument never changes the network; it drives every pair
// draw and every mutation victim, so runs with different seeds measure
// the same program on different traffic.
const (
	fixtureNodes = 800
	fixtureSeed  = 42
	fixtureName  = "FA-800-42"

	batchSize = 256 // routes per batch-miss call
	sinkCount = 8   // convergecast sinks of churn-mixed

	failPerMutation = 4
	movePerMutation = fixtureNodes / 100 // a 1% drift batch
	driftSigma      = 2.0                // metres, as the workload engine's default drift
)

var fixtureSpec = serve.Spec{Model: topo.ModelFA, N: fixtureNodes, Seed: fixtureSeed}

// routerAlgs are the routers the workloads draw from: the paper's four
// plus GPSR. The Ideal references are deliberately left out.
var routerAlgs = []string{"GF", "LGF", "SLGF", "SLGF2", "GPSR"}

// Stream ids keep the PCG streams of one seed independent.
const (
	streamClient   = 1 << 20 // + client index
	streamMiss     = 1
	streamSchedule = 2
	streamCheck    = 3
)

// fixture holds what the generators need to know about the pristine
// network: node positions, connected components and the convergecast
// sinks.
type fixture struct {
	net   *topo.Network
	comp  []int
	sinks []topo.NodeID
	sink  []bool
}

func newFixture() (*fixture, error) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(fixtureSpec.Model, fixtureSpec.N, fixtureSpec.Seed))
	if err != nil {
		return nil, fmt.Errorf("deploying the fixture: %w", err)
	}
	f := &fixture{net: dep.Net, sink: make([]bool, fixtureNodes)}
	f.comp, _ = topo.Components(dep.Net)
	// The sinks are the nodes nearest the centres of a 4x2 grid of
	// cells: fixed by the geometry, so the convergecast hop mix does not
	// swing with the seed. Eight sinks make the pairs recomputed after
	// each purge about 3% of reads, so the p99 read sits inside the
	// recomputed routes rather than on the edge between them and hits.
	field := dep.Net.Field
	for i := 0; i < sinkCount; i++ {
		c := geom.Pt(field.Min.X+field.Width()*(float64(i%4)+0.5)/4, field.Min.Y+field.Height()*(float64(i/4)+0.5)/2)
		best, bestD := topo.NodeID(-1), math.Inf(1)
		for u := 0; u < fixtureNodes; u++ {
			if d := geom.Dist(c, dep.Net.Pos(topo.NodeID(u))); d < bestD && !f.sink[u] {
				best, bestD = topo.NodeID(u), d
			}
		}
		f.sinks = append(f.sinks, best)
		f.sink[best] = true
	}
	return f, nil
}

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// routablePair draws a uniform pair of distinct nodes in one component.
func (f *fixture) routablePair(rng *rand.Rand) (topo.NodeID, topo.NodeID) {
	for {
		s, d := rng.IntN(fixtureNodes), rng.IntN(fixtureNodes)
		if s != d && f.comp[s] >= 0 && f.comp[s] == f.comp[d] {
			return topo.NodeID(s), topo.NodeID(d)
		}
	}
}

// newStream returns the request generator of one client of a workload.
// It depends only on (workload, seed, client), never on timing, so a
// seed replays the same per-client request sequence.
func (f *fixture) newStream(workload string, seed uint64, client int) func() serve.RouteRequest {
	rng := newRNG(seed, streamClient+uint64(client))
	switch workload {
	case wlBatchMiss:
		i := 0
		return func() serve.RouteRequest {
			s, d := f.routablePair(rng)
			alg := routerAlgs[i%len(routerAlgs)]
			i++
			return serve.RouteRequest{Deployment: fixtureName, Algorithm: alg, Src: s, Dst: d}
		}
	case wlChurnMixed:
		return func() serve.RouteRequest { return f.convergecast(rng) }
	}
	panic("unknown workload " + workload)
}

// missSegment draws n uniform pairs from a stream no client uses, the
// routers cycling as on batch-miss, and never to a sink: pairs the
// route cache has almost surely not seen, so Service.Route takes its
// miss path on them on either workload.
func (f *fixture) missSegment(seed uint64, n int) []serve.RouteRequest {
	rng := newRNG(seed, streamMiss)
	out := make([]serve.RouteRequest, 0, n)
	for len(out) < n {
		s, d := f.routablePair(rng)
		if f.sink[d] {
			continue
		}
		out = append(out, serve.RouteRequest{Deployment: fixtureName, Algorithm: routerAlgs[len(out)%len(routerAlgs)], Src: s, Dst: d})
	}
	return out
}

// convergecastPool lists every (source, sink) pair the churn reader can
// draw, for warming the cache before timing.
func (f *fixture) convergecastPool() []serve.RouteRequest {
	var pool []serve.RouteRequest
	for u := 0; u < fixtureNodes; u++ {
		if f.sink[u] {
			continue
		}
		for _, s := range f.sinks {
			pool = append(pool, serve.RouteRequest{Deployment: fixtureName, Algorithm: "SLGF2", Src: topo.NodeID(u), Dst: s})
		}
	}
	return pool
}

func (f *fixture) convergecast(rng *rand.Rand) serve.RouteRequest {
	src := rng.IntN(fixtureNodes)
	for f.sink[src] {
		src = rng.IntN(fixtureNodes)
	}
	return serve.RouteRequest{Deployment: fixtureName, Algorithm: "SLGF2", Src: topo.NodeID(src), Dst: f.sinks[rng.IntN(len(f.sinks))]}
}

// Mutation kinds.
const (
	mutFail   = "fail"
	mutRevive = "revive"
	mutMove   = "move"
)

// cycle is the order the churn schedule repeats.
var cycle = []string{mutFail, mutRevive, mutMove, mutMove, mutMove}

// mutation is one topology change of the churn schedule. Moves carry
// absolute positions, so replaying a schedule prefix reproduces the
// exact topology the service reached.
type mutation struct {
	kind  string
	nodes []topo.NodeID // fail, revive
	moves []topo.Move   // move
}

// schedule is the seeded churn cycle: fail a few random nodes, revive
// them, then three move batches. Each move batch drifts 1% of the nodes
// off their deployed positions by Gaussian jitter and brings the
// previous batch home, so churn is stationary: the network keeps its
// layout on average instead of random-walking away from it, and every
// seed sees the same deployment. Sinks are never touched. Mutations are
// generated on demand and kept, so any prefix is stable.
//
// Three cheap moves per fail and revive put the mutation latency
// quantiles inside one kind each: the median among the moves and p90 at
// the median revive, rather than on the edge between two kinds.
type schedule struct {
	f       *fixture
	rng     *rand.Rand
	home    []geom.Point
	drifted []topo.NodeID // nodes the last move batch displaced
	muts    []mutation
}

func (f *fixture) newSchedule(seed uint64) *schedule {
	return &schedule{f: f, rng: newRNG(seed, streamSchedule), home: f.net.Positions()}
}

// at returns mutation i, generating the schedule up to it.
func (s *schedule) at(i int) mutation {
	for len(s.muts) <= i {
		s.muts = append(s.muts, s.generate(len(s.muts)))
	}
	return s.muts[i]
}

func (s *schedule) generate(i int) mutation {
	switch cycle[i%len(cycle)] {
	case mutFail:
		return mutation{kind: mutFail, nodes: s.pick(failPerMutation, nil)}
	case mutRevive:
		return mutation{kind: mutRevive, nodes: s.muts[i-1].nodes}
	}
	field := s.f.net.Field
	moves := make([]topo.Move, 0, 2*movePerMutation)
	for _, u := range s.drifted {
		moves = append(moves, topo.Move{Node: u, X: s.home[u].X, Y: s.home[u].Y})
	}
	s.drifted = s.pick(movePerMutation, s.drifted)
	for _, u := range s.drifted {
		p := s.home[u]
		p.X = min(max(p.X+s.rng.NormFloat64()*driftSigma, field.Min.X), field.Max.X)
		p.Y = min(max(p.Y+s.rng.NormFloat64()*driftSigma, field.Min.Y), field.Max.Y)
		moves = append(moves, topo.Move{Node: u, X: p.X, Y: p.Y})
	}
	return mutation{kind: mutMove, moves: moves}
}

// pick draws k distinct non-sink nodes outside skip.
func (s *schedule) pick(k int, skip []topo.NodeID) []topo.NodeID {
	out := make([]topo.NodeID, 0, k)
	for len(out) < k {
		u := topo.NodeID(s.rng.IntN(fixtureNodes))
		if !s.f.sink[u] && !containsNode(out, u) && !containsNode(skip, u) {
			out = append(out, u)
		}
	}
	return out
}

func containsNode(s []topo.NodeID, u topo.NodeID) bool {
	for _, v := range s {
		if v == u {
			return true
		}
	}
	return false
}

// topoState is the deployment's churn state after a schedule prefix:
// the dead nodes and the last position of every moved node.
type topoState struct {
	failed map[topo.NodeID]bool
	moved  map[topo.NodeID]topo.Move
}

// stateAt folds the first k mutations into a topoState.
func (s *schedule) stateAt(k int) topoState {
	st := topoState{failed: map[topo.NodeID]bool{}, moved: map[topo.NodeID]topo.Move{}}
	for i := 0; i < k; i++ {
		m := s.at(i)
		switch m.kind {
		case mutFail:
			for _, u := range m.nodes {
				st.failed[u] = true
			}
		case mutRevive:
			for _, u := range m.nodes {
				delete(st.failed, u)
			}
		case mutMove:
			for _, mv := range m.moves {
				st.moved[mv.Node] = mv
			}
		}
	}
	return st
}
