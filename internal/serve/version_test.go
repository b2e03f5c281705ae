package serve

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/topo"
)

// answer is one route a storm reader received, tagged with the epoch of
// the version that answered it.
type answer struct {
	alg      int
	src, dst topo.NodeID
	epoch    uint64
	res      RouteResponse
}

// TestVersionStorm races readers against a writer (run it under -race).
// Four readers mix Route and Batch over every served algorithm while one
// writer runs a random fail/revive/move schedule and records the state
// it published at each epoch. Every answer must carry a published
// epoch, and a sample of answers must equal what a from-scratch build
// of that epoch's state routes — which fails if a mutation ever repairs
// a version readers can still see.
func TestVersionStorm(t *testing.T) {
	s, name := newTestService(t, Config{Workers: 2})
	if err := s.Build(name); err != nil {
		t.Fatal(err)
	}
	published := map[uint64]DeploymentState{0: s.ExportState()[0]}
	home := current(t, s, name).net.Positions()

	var done sync.WaitGroup
	stop := make(chan struct{})
	answers := make([][]answer, 4)
	for r := range answers {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			rng := rand.New(rand.NewPCG(uint64(r), 11))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				alg := rng.IntN(numAlgorithms)
				src, dst := topo.NodeID(rng.IntN(testSpec.N)), topo.NodeID(rng.IntN(testSpec.N))
				if i%2 == 0 {
					var res core.Result
					cached, epoch, err := s.route(&res, name, algorithmNames[alg], src, dst, nil, false, nil)
					if err != nil {
						t.Error(err)
						return
					}
					answers[r] = append(answers[r], answer{alg, src, dst, epoch, toResponse(res, cached, false, epoch)})
					continue
				}
				reqs := make([]RouteRequest, 8)
				for k := range reqs {
					reqs[k] = RouteRequest{Deployment: name, Algorithm: algorithmNames[alg], Src: src, Dst: topo.NodeID(rng.IntN(testSpec.N))}
				}
				out := s.Batch(reqs)
				for k, res := range out {
					if res.Err != "" || res.Epoch != out[0].Epoch {
						t.Errorf("batch answer %d = %+v; want epoch %d like the rest of its batch", k, res, out[0].Epoch)
						return
					}
					answers[r] = append(answers[r], answer{alg, reqs[k].Src, reqs[k].Dst, res.Epoch, res})
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewPCG(7, 11))
	var dead []topo.NodeID
	for step := 0; step < 30; step++ {
		var m Mutation
		switch k := rng.IntN(3); {
		case k == 0 || len(dead) == 0:
			m = Mutation{Kind: MutationFail}
			for len(m.Nodes) < 3 {
				m.Nodes = append(m.Nodes, topo.NodeID(rng.IntN(testSpec.N)))
			}
			dead = append(dead, m.Nodes...)
		case k == 1:
			m = Mutation{Kind: MutationRevive, Nodes: dead[:len(dead)/2+1]}
			dead = dead[len(dead)/2+1:]
		default:
			m = Mutation{Kind: MutationMove}
			for len(m.Moves) < 6 {
				u := topo.NodeID(rng.IntN(testSpec.N))
				m.Moves = append(m.Moves, topo.Move{Node: u, X: home[u].X + 4*rng.NormFloat64(), Y: home[u].Y + 4*rng.NormFloat64()})
			}
		}
		if err := s.Mutate(name, m, ""); err != nil {
			t.Fatal(err)
		}
		st := s.ExportState()[0]
		published[st.Epoch] = st
	}
	close(stop)
	done.Wait()

	var all []answer
	for _, a := range answers {
		all = append(all, a...)
	}
	seen := map[uint64]bool{}
	for _, a := range all {
		if _, ok := published[a.epoch]; !ok {
			t.Fatalf("answer %+v carries epoch %d, which was never published", a.res, a.epoch)
		}
		seen[a.epoch] = true
	}
	if len(all) == 0 || len(seen) < 3 {
		t.Fatalf("%d answers over %d epochs: the readers did not overlap the writer", len(all), len(seen))
	}

	// The sample: answers spread evenly over the storm, each checked
	// against a fresh build of its epoch's state (built once per epoch).
	refs := map[uint64][numAlgorithms]core.Router{}
	for i := 0; i < len(all); i += max(1, len(all)/300) {
		a := all[i]
		routers, ok := refs[a.epoch]
		if !ok {
			routers = rebuild(t, published[a.epoch])
			refs[a.epoch] = routers
		}
		want := routers[a.alg].Route(a.src, a.dst)
		if a.res.Delivered != want.Delivered || a.res.Hops != want.Hops() || a.res.Length != want.Length {
			t.Fatalf("%s %d->%d at epoch %d: got %+v; a fresh build routes delivered=%v hops=%d length=%v",
				algorithmNames[a.alg], a.src, a.dst, a.epoch, a.res, want.Delivered, want.Hops(), want.Length)
		}
	}
}

// rebuild builds the router set of a deployment state from scratch: the
// pristine network, the moved positions and the dead set applied, then
// every substrate built anew.
func rebuild(t *testing.T, st DeploymentState) [numAlgorithms]core.Router {
	t.Helper()
	dep, err := topo.Deploy(topo.DefaultDeployConfig(st.Spec.Model, st.Spec.N, st.Spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Net.SetPositions(st.Moved); err != nil {
		t.Fatal(err)
	}
	for _, u := range st.Failed {
		dep.Net.SetAlive(u, false)
	}
	m, b, g := core.BuildSubstrates(dep.Net, true, true, true, nil)
	return buildRouters(dep.Net, m, b, g)
}

// TestRetiredVersionsAreCollected: once a newer version is published
// and no reader holds the old one, nothing retains it — after a few
// collections only the current version's network is still live.
func TestRetiredVersionsAreCollected(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 4)
	var finalized atomic.Int32
	for i := 0; i < 6; i++ {
		runtime.SetFinalizer(current(t, s, name).net, func(*topo.Network) { finalized.Add(1) })
		for _, alg := range Algorithms() {
			if _, _, err := s.Route(name, alg, pairs[i%4][0], pairs[i%4][1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Fail(name, []topo.NodeID{topo.NodeID(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	for try := 0; try < 50 && finalized.Load() < 6; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := finalized.Load(); n != 6 {
		t.Fatalf("%d of 6 retired versions were collected", n)
	}
}
