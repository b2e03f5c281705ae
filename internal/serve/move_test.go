package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// driftMoves builds a small seeded Gaussian drift batch over alive,
// non-endpoint nodes so the test's route pairs stay valid.
func driftMoves(t *testing.T, s *Service, dep string, avoid map[topo.NodeID]bool, k int, seed uint64) []topo.Move {
	t.Helper()
	net := current(t, s, dep).net
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	moves := make([]topo.Move, 0, k)
	for len(moves) < k {
		u := topo.NodeID(rng.IntN(net.N()))
		if avoid[u] {
			continue
		}
		p := net.Pos(u)
		x := min(max(p.X+rng.NormFloat64()*8, net.Field.Min.X), net.Field.Max.X)
		y := min(max(p.Y+rng.NormFloat64()*8, net.Field.Min.Y), net.Field.Max.Y)
		moves = append(moves, topo.Move{Node: u, X: x, Y: y})
	}
	return moves
}

// TestMoveRepairsAndMatchesFreshSim is the serving-layer pin of the
// position-repair differential: after /move-style batches under a warm
// cache, every algorithm must route exactly like substrates built from
// scratch on the moved topology, with the cache invalidated.
func TestMoveRepairsAndMatchesFreshSim(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 4)
	endpoint := make(map[topo.NodeID]bool)
	for _, p := range pairs {
		endpoint[p[0]], endpoint[p[1]] = true, true
	}

	// Warm the cache so the move must purge it.
	for _, p := range pairs {
		if _, _, err := s.Route(name, "SLGF2", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}

	moves := driftMoves(t, s, name, endpoint, 5, 11)
	if err := s.Move(name, moves); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MovedNodes; got != int64(len(moves)) {
		t.Fatalf("MovedNodes = %d; want %d", got, len(moves))
	}

	// Fresh reference over the moved coordinates.
	net := current(t, s, name).net
	refNet, err := topo.NewNetwork(net.Positions(), net.Radius, net.Field)
	if err != nil {
		t.Fatal(err)
	}
	refRouters := buildRouters(refNet, safety.Build(refNet),
		bound.FindHoles(refNet), planar.Build(refNet, planar.GabrielGraph))

	for ai, alg := range Algorithms() {
		for _, p := range pairs {
			got, cached, err := s.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Fatalf("%s %v served from cache after Move", alg, p)
			}
			want := refRouters[ai].Route(p[0], p[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v diverges from fresh substrate after move:\nserve %+v\nfresh %+v", alg, p, got, want)
			}
		}
	}

	// An empty batch is a no-op; an unknown node is a client error.
	st := s.Stats()
	if err := s.Move(name, nil); err != nil {
		t.Fatal(err)
	}
	if s.Stats().MovedNodes != st.MovedNodes {
		t.Fatal("empty move batch changed the counter")
	}
	if err := s.Move(name, []topo.Move{{Node: topo.NodeID(testSpec.N), X: 1, Y: 1}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestConcurrentBatchAndMove races batch queries against drift batches;
// under -race this pins that Move serializes with routing exactly like
// Fail does.
func TestConcurrentBatchAndMove(t *testing.T) {
	s, name := newTestService(t, Config{Workers: 4})
	pairs := alivePairs(t, s, name, 6)
	reqs := make([]RouteRequest, 0, len(pairs)*len(Algorithms()))
	for _, alg := range Algorithms() {
		for _, p := range pairs {
			reqs = append(reqs, RouteRequest{Deployment: name, Algorithm: alg, Src: p[0], Dst: p[1]})
		}
	}
	endpoint := make(map[topo.NodeID]bool)
	for _, p := range pairs {
		endpoint[p[0]], endpoint[p[1]] = true, true
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, r := range s.Batch(reqs) {
					if r.Err != "" {
						t.Errorf("batch route errored: %s", r.Err)
					}
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			moves := driftMoves(t, s, name, endpoint, 3, uint64(100+i))
			if err := s.Move(name, moves); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	// Post-race differential: final repaired state equals a fresh build.
	net := current(t, s, name).net
	refNet, err := topo.NewNetwork(net.Positions(), net.Radius, net.Field)
	if err != nil {
		t.Fatal(err)
	}
	refRouters := buildRouters(refNet, safety.Build(refNet),
		bound.FindHoles(refNet), planar.Build(refNet, planar.GabrielGraph))
	for ai, alg := range Algorithms() {
		for _, p := range pairs {
			got, _, err := s.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			want := refRouters[ai].Route(p[0], p[1])
			// The batch goroutines may have re-warmed the cache after the
			// final move, so compare the pathless aggregates.
			got.Path, want.Path = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v diverges after concurrent moves:\nserve %+v\nfresh %+v", alg, p, got, want)
			}
		}
	}
}

// TestDeployObstacleCoverage pins OB registry naming and validation: the
// coverage knob lands in the default name (so sweep rungs at different
// coverages are distinct deployments) and out-of-range coverage is
// rejected.
func TestDeployObstacleCoverage(t *testing.T) {
	s := New(Config{})
	name, err := s.Deploy("", Spec{Model: topo.ModelOB, N: 200, Seed: 3, Coverage: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if name != "OB-200-3-c30" {
		t.Fatalf("OB default name = %q; want OB-200-3-c30", name)
	}
	if _, err := s.Deploy("", Spec{Model: topo.ModelOB, N: 200, Seed: 3}); err != nil {
		t.Fatalf("default-coverage OB deploy: %v", err)
	}
	if _, err := s.Deploy("bad", Spec{Model: topo.ModelOB, N: 200, Seed: 3, Coverage: 1.2}); err == nil {
		t.Fatal("coverage >= 1 accepted")
	}
	if _, err := s.Deploy("bad", Spec{Model: topo.ModelOB, N: 200, Seed: 3, Coverage: -0.1}); err == nil {
		t.Fatal("negative coverage accepted")
	}
	if err := s.Build(name); err != nil {
		t.Fatalf("building obstacle deployment: %v", err)
	}
}

// TestHTTPMove drives the /move endpoint end to end: deploy an obstacle
// field over HTTP, move nodes, and confirm the response shape plus the
// stats counter.
func TestHTTPMove(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path string, body any, out any) *http.Response {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}

	var dr DeployResponse
	resp := post("/deploy", map[string]any{"model": "ob", "n": 150, "seed": 2, "coverage": 0.2, "build": true}, &dr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/deploy status %d", resp.StatusCode)
	}
	if dr.Name != "OB-150-2-c20" {
		t.Fatalf("deploy name = %q", dr.Name)
	}

	var mr moveResponse
	resp = post("/move", movesRequest{
		Deployment: dr.Name,
		Moves:      []topo.Move{{Node: 3, X: 40, Y: 40}, {Node: 9, X: 60, Y: 55}},
	}, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/move status %d", resp.StatusCode)
	}
	if mr.Moved != 2 || mr.Deployment != dr.Name {
		t.Fatalf("move response = %+v", mr)
	}
	if got := s.Stats().MovedNodes; got != 2 {
		t.Fatalf("MovedNodes = %d; want 2", got)
	}

	// Bad node id surfaces as a 400.
	resp = post("/move", movesRequest{
		Deployment: dr.Name,
		Moves:      []topo.Move{{Node: 150, X: 1, Y: 1}},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/move with bad node: status %d; want 400", resp.StatusCode)
	}
}
