package main

import (
	"fmt"
	"sort"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// reference is a from-scratch build of one topology state: the oracle
// every answer of the service must equal.
type reference struct {
	routers map[string]core.Router
	buf     []topo.NodeID
}

// deployState deploys the fixture afresh and applies a churn state.
func deployState(st topoState) (*topo.Network, error) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(fixtureSpec.Model, fixtureSpec.N, fixtureSpec.Seed))
	if err != nil {
		return nil, fmt.Errorf("deploying the reference: %w", err)
	}
	if len(st.moved) > 0 {
		moves := make([]topo.Move, 0, len(st.moved))
		for _, m := range st.moved {
			moves = append(moves, m)
		}
		sort.Slice(moves, func(i, j int) bool { return moves[i].Node < moves[j].Node })
		if _, err := dep.Net.SetPositions(moves); err != nil {
			return nil, fmt.Errorf("moving the reference: %w", err)
		}
	}
	for u := range st.failed {
		dep.Net.SetAlive(u, false)
	}
	return dep.Net, nil
}

func buildReference(st topoState) (*reference, error) {
	net, err := deployState(st)
	if err != nil {
		return nil, err
	}
	m, b, g := core.BuildSubstrates(net, true, true, true, nil)
	return &reference{routers: newRouters(net, m, b, g)}, nil
}

// newRouters builds the router set the service serves, as serve does.
func newRouters(net *topo.Network, m *safety.Model, b *bound.Boundaries, g *planar.Graph) map[string]core.Router {
	return map[string]core.Router{
		"GF":    core.NewGF(net, b),
		"LGF":   core.NewLGF(net),
		"SLGF":  core.NewSLGF(net, m),
		"SLGF2": core.NewSLGF2(net, m, core.WithPlanarGraph(g)),
		"GPSR":  core.NewGPSR(net, g),
	}
}

func (r *reference) route(req serve.RouteRequest) serve.RouteResponse {
	res := r.routers[req.Algorithm].RouteInto(req.Src, req.Dst, r.buf)
	r.buf = res.Path[:0]
	return toResponse(res, false)
}

func toResponse(res core.Result, cached bool) serve.RouteResponse {
	return serve.RouteResponse{Delivered: res.Delivered, Hops: res.Hops(), Length: res.Length, Cached: cached}
}

// sameRoute compares the fields a route is pinned by.
func sameRoute(got, want serve.RouteResponse) bool {
	return got.Err == "" && got.Delivered == want.Delivered && got.Hops == want.Hops && got.Length == want.Length
}

// references builds each needed schedule state once.
type references struct {
	sched *schedule
	built map[int]*reference
}

func (rs *references) at(k int) (*reference, error) {
	if r, ok := rs.built[k]; ok {
		return r, nil
	}
	r, err := buildReference(rs.sched.stateAt(k))
	if err != nil {
		return nil, err
	}
	if rs.built == nil {
		rs.built = map[int]*reference{}
	}
	rs.built[k] = r
	return r, nil
}

// maxProblems bounds the mismatches one check reports.
const maxProblems = 5

// checkSamples compares sampled responses with a from-scratch build of
// the state each was answered in. It rebuilds at most three states: the
// first and last seen, and one between.
func checkSamples(refs *references, samples []sample) (checked int, problems []string, err error) {
	byState := map[int][]sample{}
	var states []int
	for _, s := range samples {
		if _, ok := byState[s.state]; !ok {
			states = append(states, s.state)
		}
		byState[s.state] = append(byState[s.state], s)
	}
	sort.Ints(states)
	if len(states) > 3 {
		states = []int{states[0], states[len(states)/2], states[len(states)-1]}
	}
	for _, k := range states {
		ref, err := refs.at(k)
		if err != nil {
			return checked, problems, err
		}
		for _, s := range byState[k] {
			checked++
			if want := ref.route(s.req); !sameRoute(s.resp, want) && len(problems) < maxProblems {
				problems = append(problems, fmt.Sprintf("state %d: %s %d->%d answered %+v, rebuild gives %+v",
					k, s.req.Algorithm, s.req.Src, s.req.Dst, s.resp, want))
			}
		}
	}
	return checked, problems, nil
}

// checkFinal routes fresh pairs under every router through the service
// and compares them with a from-scratch build of state k, the topology
// the service holds now. Fresh pairs make the repaired substrates, not
// the cache, answer.
func checkFinal(f *fixture, svc *serve.Service, refs *references, k int, seed uint64, pairs int) (checked int, problems []string, err error) {
	ref, err := refs.at(k)
	if err != nil {
		return 0, nil, err
	}
	rng := newRNG(seed, streamCheck+uint64(k)<<8)
	reqs := make([]serve.RouteRequest, 0, pairs*len(routerAlgs))
	for i := 0; i < pairs; i++ {
		s, d := f.routablePair(rng)
		for _, alg := range routerAlgs {
			reqs = append(reqs, serve.RouteRequest{Deployment: fixtureName, Algorithm: alg, Src: s, Dst: d})
		}
	}
	for i, got := range svc.Batch(reqs) {
		checked++
		if want := ref.route(reqs[i]); !sameRoute(got, want) && len(problems) < maxProblems {
			problems = append(problems, fmt.Sprintf("final state %d: %s %d->%d answered %+v, rebuild gives %+v",
				k, reqs[i].Algorithm, reqs[i].Src, reqs[i].Dst, got, want))
		}
	}
	return checked, problems, nil
}
