package workload

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// traffic is a built traffic matrix over an offline copy of the
// scenario's deployment (the same spec regenerates the same network, so
// the copy agrees with the driver's — including over HTTP, where the
// server's topology is not otherwise visible).
//
// Traffic generation is scenario-seeded and independent per worker:
// each worker obtains its own picker (own RNG, own Zipf state), so
// pair draws never contend on a shared lock.
type traffic struct {
	sc *Scenario
	// members is the largest connected component, the candidate pool
	// for sources, destinations, and churn victims (pairs across
	// components would measure disconnection, not routing).
	members []topo.NodeID
	// pairs is the uniform pattern's pool.
	pairs [][2]topo.NodeID
	// hotspots is the zipf destination list, popularity-ranked.
	hotspots []topo.NodeID
	// sinks is the convergecast sink set.
	sinks []topo.NodeID
	// nearestSink maps each member to its nearest sink.
	nearestSink map[topo.NodeID]topo.NodeID
	// protected nodes (sinks, hotspots) are exempt from FailRandom.
	protected map[topo.NodeID]bool
	// positions and field snapshot the offline copy's geometry — the
	// mobility schedule walks these (the driver's network starts
	// identical, so the schedule is reproducible from the scenario).
	positions []geom.Point
	field     geom.Rect
}

// buildTraffic deploys the offline topology copy and precomputes the
// scenario's pair pool.
func buildTraffic(sc *Scenario) (*traffic, error) {
	model, err := topo.ParseDeployModel(sc.Deployment.Model)
	if err != nil {
		return nil, err
	}
	cfg := topo.DefaultDeployConfig(model, sc.Deployment.N, sc.Deployment.Seed)
	if sc.Deployment.Coverage > 0 {
		cfg.ObstacleCoverage = sc.Deployment.Coverage
	}
	dep, err := topo.Deploy(cfg)
	if err != nil {
		return nil, fmt.Errorf("workload: deploying traffic model: %w", err)
	}
	net := dep.Net

	labels, count := topo.Components(net)
	sizes := make([]int, count)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	largest := 0
	for l, n := range sizes {
		if n > sizes[largest] {
			largest = l
		}
	}
	tr := &traffic{sc: sc, protected: make(map[topo.NodeID]bool), positions: net.Positions(), field: net.Field}
	for u, l := range labels {
		if l == largest {
			tr.members = append(tr.members, topo.NodeID(u))
		}
	}
	if len(tr.members) < 2 {
		return nil, fmt.Errorf("workload: largest component has %d nodes; nothing to route", len(tr.members))
	}

	rng := rand.New(rand.NewPCG(sc.Seed, 0x9e3779b97f4a7c15))
	switch sc.Traffic.Pattern {
	case TrafficUniform:
		tr.pairs = topo.RoutablePairs(net, sc.Traffic.Pairs, sc.Traffic.MinDist)
		if len(tr.pairs) == 0 {
			return nil, fmt.Errorf("workload: no routable pairs at min_dist %v", sc.Traffic.MinDist)
		}
	case TrafficZipf:
		k := sc.Traffic.Hotspots
		if k > len(tr.members) {
			k = len(tr.members)
		}
		for _, i := range rng.Perm(len(tr.members))[:k] {
			u := tr.members[i]
			tr.hotspots = append(tr.hotspots, u)
			tr.protected[u] = true
		}
	case TrafficConvergecast:
		k := sc.Traffic.Sinks
		if k >= len(tr.members) {
			return nil, fmt.Errorf("workload: %d sinks leave no sources in the %d-node component", k, len(tr.members))
		}
		for _, i := range rng.Perm(len(tr.members))[:k] {
			u := tr.members[i]
			tr.sinks = append(tr.sinks, u)
			tr.protected[u] = true
		}
		tr.nearestSink = make(map[topo.NodeID]topo.NodeID, len(tr.members))
		for _, u := range tr.members {
			best, bestD := tr.sinks[0], net.Dist(u, tr.sinks[0])
			for _, s := range tr.sinks[1:] {
				if d := net.Dist(u, s); d < bestD {
					best, bestD = s, d
				}
			}
			tr.nearestSink[u] = best
		}
	}
	return tr, nil
}

// picker returns an independent pair generator for one worker. alive
// reports whether a node is currently up; pickers skip dead *sources*
// (a dead sensor sends nothing) with bounded retries, but never reroll
// destinations — routing toward a dead or cut-off destination is
// exactly the loss the churn phases measure.
func (tr *traffic) picker(seed uint64, alive func(topo.NodeID) bool) func() (src, dst topo.NodeID) {
	rng := rand.New(rand.NewPCG(tr.sc.Seed, seed))
	var zipf *rand.Zipf
	if tr.sc.Traffic.Pattern == TrafficZipf {
		zipf = rand.NewZipf(rng, tr.sc.Traffic.ZipfS, 1, uint64(len(tr.hotspots)-1))
	}
	const srcRetries = 8
	return func() (topo.NodeID, topo.NodeID) {
		for try := 0; ; try++ {
			var src, dst topo.NodeID
			switch tr.sc.Traffic.Pattern {
			case TrafficUniform:
				p := tr.pairs[rng.IntN(len(tr.pairs))]
				src, dst = p[0], p[1]
			case TrafficZipf:
				dst = tr.hotspots[zipf.Uint64()]
				src = tr.members[rng.IntN(len(tr.members))]
				if src == dst {
					continue
				}
			case TrafficConvergecast:
				src = tr.members[rng.IntN(len(tr.members))]
				if tr.protected[src] { // sinks don't source
					continue
				}
				dst = tr.nearestSink[src]
			}
			if try < srcRetries && !alive(src) {
				continue
			}
			return src, dst
		}
	}
}

// randomVictims picks up to k distinct scenario-seeded churn victims:
// unprotected members outside the sorted dead set. Fewer than k are
// returned when the pool runs dry.
func (tr *traffic) randomVictims(rng *rand.Rand, k int, dead []topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for tries := 0; len(out) < k && tries < 64*k+64; tries++ {
		u := tr.members[rng.IntN(len(tr.members))]
		if tr.protected[u] || isDead(dead, u) || slices.Contains(out, u) {
			continue
		}
		out = append(out, u)
	}
	return out
}
