package workload

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// parityRoutes runs every fixed pair under every router through d.
func parityRoutes(t *testing.T, d Driver, name string, pairs [][2]topo.NodeID) []Outcome {
	t.Helper()
	var outs []Outcome
	for _, alg := range []string{"GF", "LGF", "SLGF", "SLGF2", "GPSR"} {
		for _, p := range pairs {
			out, err := d.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatalf("%s: %s %d→%d: %v", d.Name(), alg, p[0], p[1], err)
			}
			out.Cached = false // cache state is per process, not part of the answer
			outs = append(outs, out)
		}
	}
	return outs
}

// parityScript deploys FA-180-5 under name, routes the fixed pairs,
// fails, revives and moves nodes, and routes them again.
func parityScript(t *testing.T, d Driver, name string) []Outcome {
	t.Helper()
	if _, err := d.Deploy(name, DeploymentSpec{Model: "fa", N: 180, Seed: 5}); err != nil {
		t.Fatalf("%s: deploy: %v", d.Name(), err)
	}
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]topo.NodeID, 0, 50)
	for len(pairs) < 50 {
		src, dst := topo.NodeID(rng.Intn(180)), topo.NodeID(rng.Intn(180))
		if src != dst {
			pairs = append(pairs, [2]topo.NodeID{src, dst})
		}
	}
	outs := parityRoutes(t, d, name, pairs)
	for _, m := range []serve.Mutation{
		{Kind: serve.MutationFail, Nodes: []topo.NodeID{3, 17, 42, 99, 150}},
		{Kind: serve.MutationRevive, Nodes: []topo.NodeID{17, 99}},
		{Kind: serve.MutationMove, Moves: []topo.Move{{Node: 20, X: 50, Y: 50}, {Node: 64, X: 120, Y: 80}}},
	} {
		if err := d.Mutate(name, m); err != nil {
			t.Fatalf("%s: %v: %v", d.Name(), m.Kind, err)
		}
	}
	return append(outs, parityRoutes(t, d, name, pairs)...)
}

// TestDriverModeParity runs one script three ways — the http driver
// against one service, the http driver through a 3-replica router's
// proxy tier, and the fleet driver against that router — and requires
// the same answer to every request and the same final failed set.
func TestDriverModeParity(t *testing.T) {
	svc := serve.New(serve.Config{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	h := newFleetHarness(t, 3, -1)
	fleetDrv, err := NewFleet(h.rt.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The two router runs share the router, so each uses its own
	// deployment name (names shard, they do not change routes).
	setups := []struct {
		drv     Driver
		name    string
		service func(name string) *serve.Service
	}{
		{NewHTTP(ts.URL), "parity", func(string) *serve.Service { return svc }},
		{NewHTTP(h.rt.URL), "parity-proxy", h.owner},
		{fleetDrv, "parity-fleet", h.owner},
	}
	var want []Outcome
	var wantFailed []topo.NodeID
	for i, s := range setups {
		got := parityScript(t, s.drv, s.name)
		s.drv.Close()
		failed, err := s.service(s.name).Failed(s.name)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantFailed = got, failed
			if half := len(want) / 2; reflect.DeepEqual(want[:half], want[half:]) {
				t.Fatal("the churn changed no answer, so the script cannot tell the modes apart")
			}
			continue
		}
		label := fmt.Sprintf("%s driver, setup %d", s.drv.Name(), i)
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers; want %d", label, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: request %d answered %+v; want %+v", label, j, got[j], want[j])
			}
		}
		if !reflect.DeepEqual(failed, wantFailed) {
			t.Fatalf("%s: final failed set %v; want %v", label, failed, wantFailed)
		}
	}
}

// owner returns the replica service that owns a deployment.
func (h *fleetHarness) owner(deployment string) *serve.Service {
	rep, _ := h.router.Map().Owner(deployment)
	var idx int
	fmt.Sscanf(rep.ID, "r%d", &idx)
	return h.svcs[idx]
}
