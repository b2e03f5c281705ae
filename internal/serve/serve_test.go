package serve

import (
	"reflect"
	"sync"
	"testing"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// testSpec is small enough to build quickly but large enough that routes
// traverse several hops.
var testSpec = Spec{Model: topo.ModelFA, N: 300, Seed: 7}

func newTestService(t *testing.T, cfg Config) (*Service, string) {
	t.Helper()
	s := New(cfg)
	name, err := s.Deploy("", testSpec)
	if err != nil {
		t.Fatal(err)
	}
	return s, name
}

// alivePairs returns n routable (same-component, well-separated) pairs.
func alivePairs(t *testing.T, s *Service, dep string, n int) [][2]topo.NodeID {
	t.Helper()
	if err := s.Build(dep); err != nil {
		t.Fatal(err)
	}
	d, err := s.lookup(dep)
	if err != nil {
		t.Fatal(err)
	}
	pairs := topo.RoutablePairs(d.dep.Net, n, 80)
	if len(pairs) < n {
		t.Fatalf("found only %d routable pairs, want %d", len(pairs), n)
	}
	return pairs
}

func TestDeployRegistry(t *testing.T) {
	s, name := newTestService(t, Config{})
	if name != "FA-300-7" {
		t.Fatalf("default name = %q; want FA-300-7", name)
	}
	// Idempotent re-registration.
	if _, err := s.Deploy(name, testSpec); err != nil {
		t.Fatalf("re-deploy same spec: %v", err)
	}
	// Conflicting spec under a live name is refused.
	if _, err := s.Deploy(name, Spec{Model: topo.ModelIA, N: 300, Seed: 7}); err == nil {
		t.Fatal("conflicting re-deploy succeeded")
	}
	if _, _, err := s.Route("nope", "SLGF2", 0, 1); err == nil {
		t.Fatal("route on unknown deployment succeeded")
	}
	if got := s.Deployments(); !reflect.DeepEqual(got, []string{name}) {
		t.Fatalf("Deployments() = %v", got)
	}
}

func TestDeployValidation(t *testing.T) {
	s := New(Config{})
	if _, err := s.Deploy("x", Spec{Model: 99, N: 10, Seed: 1}); err == nil {
		t.Fatal("bad model accepted")
	}
	if _, err := s.Deploy("x", Spec{Model: topo.ModelIA, N: 0, Seed: 1}); err == nil {
		t.Fatal("zero node count accepted")
	}
}

// TestSingleflightBuild storms one deployment with concurrent first
// requests and asserts the substrate was built exactly once.
func TestSingleflightBuild(t *testing.T) {
	s, name := newTestService(t, Config{})
	const goroutines = 32
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			if _, _, err := s.Route(name, "SLGF2", 0, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Builds; got != 1 {
		t.Fatalf("builds = %d; want exactly 1", got)
	}
}

func TestRouteCachedSecondTime(t *testing.T) {
	s, name := newTestService(t, Config{})
	pair := alivePairs(t, s, name, 1)[0]
	first, cached, err := s.Route(name, "SLGF2", pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first route reported cached")
	}
	if !first.Delivered {
		t.Fatalf("route %v undelivered: %v", pair, first.Reason)
	}
	second, cached, err := s.Route(name, "SLGF2", pair[0], pair[1])
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second route missed the cache")
	}
	// Cached results drop the path but keep every aggregate, including
	// the hop count (served from the phase totals).
	if second.Path != nil {
		t.Fatalf("cached result carries a path: %v", second.Path)
	}
	if second.Hops() != first.Hops() {
		t.Fatalf("cached hops = %d, want %d", second.Hops(), first.Hops())
	}
	first.Path = nil
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.Routes != 2 {
		t.Fatalf("stats = %+v; want 1 hit over 2 routes", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	s, name := newTestService(t, Config{CacheSize: -1})
	pair := alivePairs(t, s, name, 1)[0]
	for i := 0; i < 2; i++ {
		if _, cached, err := s.Route(name, "SLGF2", pair[0], pair[1]); err != nil || cached {
			t.Fatalf("round %d: cached=%v err=%v; want uncached, nil", i, cached, err)
		}
	}
}

func TestRouteValidation(t *testing.T) {
	s, name := newTestService(t, Config{})
	if _, _, err := s.Route(name, "SLGF2", -1, 5); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, _, err := s.Route(name, "SLGF2", 0, topo.NodeID(testSpec.N)); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if _, _, err := s.Route(name, "NOPE", 0, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBatchPreservesOrder(t *testing.T) {
	s, name := newTestService(t, Config{Workers: 4})
	pairs := alivePairs(t, s, name, 8)
	reqs := make([]RouteRequest, len(pairs))
	for i, p := range pairs {
		reqs[i] = RouteRequest{Deployment: name, Algorithm: "SLGF2", Src: p[0], Dst: p[1]}
	}
	got := s.Batch(reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for i, p := range pairs {
		want, _, err := s.Route(name, "SLGF2", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != "" {
			t.Fatalf("result %d errored: %s", i, got[i].Err)
		}
		if got[i].Hops != want.Hops() || got[i].Length != want.Length || got[i].Delivered != want.Delivered {
			t.Fatalf("result %d = %+v; want hops=%d length=%v", i, got[i], want.Hops(), want.Length)
		}
	}
	if s.Stats().Batches != 1 {
		t.Fatalf("batches = %d; want 1", s.Stats().Batches)
	}
}

func TestBatchReportsPerRequestErrors(t *testing.T) {
	s, name := newTestService(t, Config{})
	pair := alivePairs(t, s, name, 1)[0]
	got := s.Batch([]RouteRequest{
		{Deployment: name, Algorithm: "SLGF2", Src: pair[0], Dst: pair[1]},
		{Deployment: "nope", Algorithm: "SLGF2", Src: 0, Dst: 1},
		{Deployment: name, Algorithm: "NOPE", Src: 0, Dst: 1},
	})
	if got[0].Err != "" || !got[0].Delivered {
		t.Fatalf("good request failed: %+v", got[0])
	}
	if got[1].Err == "" || got[2].Err == "" {
		t.Fatalf("bad requests did not error: %+v, %+v", got[1], got[2])
	}
}

// TestFailInvalidatesCacheAndMatchesFreshSim kills nodes on a cached
// route's path and asserts (1) the cache entry no longer serves, and
// (2) every post-failure result equals what a from-scratch substrate
// over the damaged topology computes.
func TestFailInvalidatesCacheAndMatchesFreshSim(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 4)

	// Warm the cache.
	baseline := make(map[[2]topo.NodeID]int)
	for _, p := range pairs {
		res, _, err := s.Route(name, "SLGF2", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		baseline[p] = res.Hops()
	}

	// Fail two interior nodes on the first route's path. The pair is
	// cached (pathless) by now, so route past the cache for the path,
	// like the HTTP layer's path:true does.
	first, _, err := s.route(name, "SLGF2", pairs[0][0], pairs[0][1], nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Path) < 4 {
		t.Fatalf("path too short to damage: %v", first.Path)
	}
	dead := []topo.NodeID{first.Path[len(first.Path)/3], first.Path[2*len(first.Path)/3]}
	if dead[0] == dead[1] {
		dead = dead[:1]
	}
	if err := s.Fail(name, dead); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Failed(name); err != nil || len(got) != len(dead) {
		t.Fatalf("Failed() = %v, %v; want %v", got, err, dead)
	}

	// Fresh reference: a brand new deployment with the same spec, the
	// same nodes killed, and all substrates built from scratch.
	refDep, err := topo.Deploy(topo.DefaultDeployConfig(testSpec.Model, testSpec.N, testSpec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range dead {
		refDep.Net.SetAlive(u, false)
	}
	refRouters := s.buildRouters(refDep.Net, safety.Build(refDep.Net),
		bound.FindHoles(refDep.Net), planar.Build(refDep.Net, planar.GabrielGraph))

	for ai, alg := range Algorithms() {
		for _, p := range pairs {
			got, cached, err := s.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Fatalf("%s %v served from cache after Fail", alg, p)
			}
			want := refRouters[ai].Route(p[0], p[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v diverges from fresh substrate:\nserve %+v\nfresh %+v", alg, p, got, want)
			}
		}
	}

	// Idempotent re-fail does not bump the epoch or counters.
	st := s.Stats()
	if err := s.Fail(name, dead); err != nil {
		t.Fatal(err)
	}
	if s.Stats().FailedNodes != st.FailedNodes {
		t.Fatal("re-failing dead nodes changed the failure counter")
	}
}

// TestConcurrentBatchAndFail drives parallel batch queries against one
// deployment while nodes fail concurrently; run under -race this is the
// subsystem's central soundness test. Afterwards the service must agree
// with a fresh substrate over the final dead-node set.
func TestConcurrentBatchAndFail(t *testing.T) {
	s, name := newTestService(t, Config{Workers: 4})
	pairs := alivePairs(t, s, name, 6)
	reqs := make([]RouteRequest, 0, len(pairs)*len(Algorithms()))
	for _, alg := range Algorithms() {
		for _, p := range pairs {
			reqs = append(reqs, RouteRequest{Deployment: name, Algorithm: alg, Src: p[0], Dst: p[1]})
		}
	}

	// Kill nodes far from every src/dst endpoint so requests stay valid.
	endpoint := make(map[topo.NodeID]bool)
	for _, p := range pairs {
		endpoint[p[0]], endpoint[p[1]] = true, true
	}
	var dead []topo.NodeID
	for u := 0; len(dead) < 6; u += 37 {
		id := topo.NodeID(u % testSpec.N)
		if !endpoint[id] {
			dead = append(dead, id)
		}
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
	for _, u := range dead {
		wg.Add(1)
		go func(u topo.NodeID) {
			defer wg.Done()
			if err := s.Fail(name, []topo.NodeID{u}); err != nil {
				t.Error(err)
			}
		}(u)
	}
	wg.Wait()

	refDep, err := topo.Deploy(topo.DefaultDeployConfig(testSpec.Model, testSpec.N, testSpec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range dead {
		refDep.Net.SetAlive(u, false)
	}
	refRouters := s.buildRouters(refDep.Net, safety.Build(refDep.Net),
		bound.FindHoles(refDep.Net), planar.Build(refDep.Net, planar.GabrielGraph))
	slgf2, _ := algorithmIndex("SLGF2")
	for _, p := range pairs {
		got, cached, err := s.Route(name, "SLGF2", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want := refRouters[slgf2].Route(p[0], p[1])
		// The storm may have left this pair cached (pathless); compare
		// the aggregates, and the path too when one was computed.
		if cached {
			want.Path = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-storm %v diverges from fresh substrate:\nserve %+v\nfresh %+v", p, got, want)
		}
	}
}

// TestReviveRestoresAndMatchesFreshSim kills nodes, revives them, and
// asserts every router agrees with a pristine from-scratch build again
// (revival drives the safety model's full-relabel repair path).
func TestReviveRestoresAndMatchesFreshSim(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 3)
	dead := []topo.NodeID{11, 42, 97}
	if err := s.Fail(name, dead); err != nil {
		t.Fatal(err)
	}
	// Reviving an alive node is a no-op; reviving out of range errors.
	if err := s.Revive(name, []topo.NodeID{3}); err != nil {
		t.Fatalf("no-op revive errored: %v", err)
	}
	if err := s.Revive(name, []topo.NodeID{topo.NodeID(testSpec.N)}); err == nil {
		t.Fatal("out-of-range revive accepted")
	}
	if err := s.Revive(name, dead); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Failed(name); err != nil || len(got) != 0 {
		t.Fatalf("Failed() after revive = %v, %v; want empty", got, err)
	}

	refDep, err := topo.Deploy(topo.DefaultDeployConfig(testSpec.Model, testSpec.N, testSpec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	refRouters := s.buildRouters(refDep.Net, safety.Build(refDep.Net),
		bound.FindHoles(refDep.Net), planar.Build(refDep.Net, planar.GabrielGraph))
	for ai, alg := range Algorithms() {
		for _, p := range pairs {
			got, cached, err := s.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Fatalf("%s %v served from cache right after revive", alg, p)
			}
			want := refRouters[ai].Route(p[0], p[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v diverges from pristine substrate after revive:\nserve %+v\nfresh %+v", alg, p, got, want)
			}
		}
	}

	st := s.Stats()
	if st.RevivedNodes != int64(len(dead)) {
		t.Fatalf("RevivedNodes = %d; want %d", st.RevivedNodes, len(dead))
	}
	if len(st.PerDeployment) != 1 {
		t.Fatalf("PerDeployment = %+v; want one entry", st.PerDeployment)
	}
	ds := st.PerDeployment[0]
	// One Fail + one effective Revive = two incremental repairs, two
	// epoch bumps, no rebuilds, no dead nodes left.
	if ds.Name != name || !ds.Ready || ds.Repairs != 2 || ds.Rebuilds != 0 || ds.Epoch != 2 || ds.FailedNodes != 0 {
		t.Fatalf("DeploymentStats = %+v", ds)
	}
}

// TestStatsDerivedFields pins the server-side cache hit rate and the
// per-deployment repair counter.
func TestStatsDerivedFields(t *testing.T) {
	s, name := newTestService(t, Config{})
	pair := alivePairs(t, s, name, 1)[0]
	for i := 0; i < 4; i++ {
		if _, _, err := s.Route(name, "GF", pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d; want 3/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRate != 0.75 {
		t.Fatalf("CacheHitRate = %v; want 0.75", st.CacheHitRate)
	}
	if err := s.Fail(name, []topo.NodeID{5}); err != nil {
		t.Fatal(err)
	}
	ds := s.Stats().PerDeployment[0]
	if ds.Repairs != 1 || ds.Rebuilds != 0 || ds.FailedNodes != 1 {
		t.Fatalf("DeploymentStats = %+v; want 1 repair", ds)
	}
}
