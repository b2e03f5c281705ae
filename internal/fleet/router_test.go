package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// testFleet is a router plus N in-process replicas behind httptest
// servers — the whole fleet topology without subprocesses.
type testFleet struct {
	router  *Router
	rt      *httptest.Server
	svcs    []*serve.Service
	servers []*httptest.Server
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{
		// Health loop off: tests drive CheckHealth deterministically.
		router: NewRouter(RouterConfig{HealthEvery: -1, HealthStrikes: 2, HealthTimeout: 500 * time.Millisecond}),
	}
	f.rt = httptest.NewServer(f.router.Handler())
	t.Cleanup(func() {
		f.rt.Close()
		f.router.Close()
		for i := range f.svcs {
			f.servers[i].Close()
		}
	})
	for i := 0; i < n; i++ {
		svc := serve.New(serve.Config{ReplicaID: fmt.Sprintf("r%d", i)})
		srv := httptest.NewServer(svc.Handler())
		f.svcs = append(f.svcs, svc)
		f.servers = append(f.servers, srv)
		if _, err := f.router.Join(Replica{ID: fmt.Sprintf("r%d", i), Addr: srv.URL}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *testFleet) post(t *testing.T, path string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.rt.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v", path, err)
	}
	return resp.StatusCode, out
}

// replicaFor finds the index of the replica owning a deployment.
func (f *testFleet) replicaFor(t *testing.T, name string) int {
	t.Helper()
	rep, ok := f.router.Map().Owner(name)
	if !ok {
		t.Fatalf("no owner for %q", name)
	}
	var id int
	if _, err := fmt.Sscanf(rep.ID, "r%d", &id); err != nil {
		t.Fatal(err)
	}
	return id
}

func deployBody(name string, n int, seed uint64) map[string]any {
	return map[string]any{"name": name, "model": "fa", "n": n, "seed": seed}
}

func TestRouterProxiesToOwner(t *testing.T) {
	f := newTestFleet(t, 3)
	const dep = "FA-200-9"
	if code, body := f.post(t, "/deploy", deployBody(dep, 200, 9)); code != 200 {
		t.Fatalf("deploy through router: %d %s", code, body)
	}

	// The deployment must exist on exactly the owning replica.
	owner := f.replicaFor(t, dep)
	for i, svc := range f.svcs {
		found := false
		for _, d := range svc.Deployments() {
			if d == dep {
				found = true
			}
		}
		if found != (i == owner) {
			t.Errorf("replica r%d has deployment = %v, owner is r%d", i, found, owner)
		}
	}

	// Route and mutate through the proxy.
	if code, body := f.post(t, "/route", map[string]any{
		"deployment": dep, "algorithm": "SLGF2", "src": 0, "dst": 150,
	}); code != 200 {
		t.Fatalf("route through router: %d %s", code, body)
	}
	if code, _ := f.post(t, "/fail", map[string]any{"deployment": dep, "nodes": []int{3, 4}}); code != 200 {
		t.Fatal("fail through router")
	}
	// The desired-state table must have tracked the mutation.
	var st *serve.DeploymentState
	for _, s := range f.router.DesiredState() {
		if s.Name == dep {
			cp := s
			st = &cp
		}
	}
	if st == nil || len(st.Failed) != 2 || st.Failed[0] != 3 {
		t.Fatalf("desired state did not track /fail: %+v", st)
	}

	// Unknown deployment routes to *some* owner and comes back 4xx.
	if code, _ := f.post(t, "/route", map[string]any{
		"deployment": "nope", "algorithm": "GF", "src": 0, "dst": 1,
	}); code != http.StatusBadRequest {
		t.Fatalf("unknown deployment = %d, want 400", code)
	}
}

func TestRouterBatchSplitsAcrossOwners(t *testing.T) {
	f := newTestFleet(t, 3)
	// Deploy several deployments; with 3 replicas and consistent
	// hashing, at least two land on different owners.
	deps := []string{"FA-150-1", "FA-150-2", "FA-150-3", "FA-150-4", "FA-150-5"}
	ownersSeen := map[int]bool{}
	for i, dep := range deps {
		if code, _ := f.post(t, "/deploy", deployBody(dep, 150, uint64(i+1))); code != 200 {
			t.Fatal("deploy failed")
		}
		ownersSeen[f.replicaFor(t, dep)] = true
	}
	if len(ownersSeen) < 2 {
		t.Skip("all test deployments hashed to one replica; widen the set")
	}

	var reqs []serve.RouteRequest
	for i := 0; i < 60; i++ {
		reqs = append(reqs, serve.RouteRequest{
			Deployment: deps[i%len(deps)], Algorithm: "GF",
			Src: topo.NodeID(i % 150), Dst: topo.NodeID((i*7 + 31) % 150),
		})
	}
	code, body := f.post(t, "/batch", map[string]any{"requests": reqs})
	if code != 200 {
		t.Fatalf("batch through router: %d", code)
	}
	var results []serve.RouteResponse
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != "" {
			t.Errorf("request %d failed in-band: %s", i, res.Err)
		}
	}

	// Cross-check a few against direct replica answers.
	for i := 0; i < 10; i++ {
		q := reqs[i]
		svc := f.svcs[f.replicaFor(t, q.Deployment)]
		want, _, err := svc.Route(q.Deployment, q.Algorithm, q.Src, q.Dst)
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Delivered != want.Delivered || results[i].Hops != want.Hops() {
			t.Errorf("request %d diverged from direct route", i)
		}
	}
}

// TestRouterReshardOnDeath is the control-plane core: kill the owning
// replica, run health checks, and the deployment must be served — with
// its churn history — by a surviving replica under a new map version.
func TestRouterReshardOnDeath(t *testing.T) {
	f := newTestFleet(t, 3)
	const dep = "FA-220-7"
	if code, _ := f.post(t, "/deploy", deployBody(dep, 220, 7)); code != 200 {
		t.Fatal("deploy failed")
	}
	if code, _ := f.post(t, "/fail", map[string]any{"deployment": dep, "nodes": []int{5, 12, 40}}); code != 200 {
		t.Fatal("fail failed")
	}
	if code, _ := f.post(t, "/revive", map[string]any{"deployment": dep, "nodes": []int{12}}); code != 200 {
		t.Fatal("revive failed")
	}

	owner := f.replicaFor(t, dep)
	oldVersion := f.router.Map().Version

	// Answer of record from the doomed owner, for the differential
	// check after the re-shard.
	want, _, err := f.svcs[owner].Route(dep, "SLGF2", 0, 150)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner (close its HTTP server: connection refused, same
	// as kill -9 from the router's viewpoint).
	f.servers[owner].Close()
	for i := 0; i < 2; i++ { // HealthStrikes = 2
		f.router.CheckHealth()
	}

	m := f.router.Map()
	if m.Version <= oldVersion {
		t.Fatalf("map version did not advance: %d <= %d", m.Version, oldVersion)
	}
	if len(m.Replicas) != 2 {
		t.Fatalf("map has %d replicas, want 2", len(m.Replicas))
	}
	newOwner := f.replicaFor(t, dep)
	if newOwner == owner {
		t.Fatalf("deployment still owned by dead replica r%d", owner)
	}

	// The new owner must answer with the full churn history restored.
	code, body := f.post(t, "/route", map[string]any{
		"deployment": dep, "algorithm": "SLGF2", "src": 0, "dst": 150,
	})
	if code != 200 {
		t.Fatalf("route after re-shard: %d %s", code, body)
	}
	var got serve.RouteResponse
	data, _ := json.Marshal(map[string]json.RawMessage(body))
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Delivered != want.Delivered || got.Hops != want.Hops() || got.Length != want.Length {
		t.Errorf("post-reshard route diverged: got %+v, want delivered=%v hops=%d len=%g",
			got, want.Delivered, want.Hops(), want.Length)
	}
	failed, err := f.svcs[newOwner].Failed(dep)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("restored failed set = %v, want [5 40]", failed)
	}

	// Journal must carry leave + reshard + restore events.
	kinds := map[obs.EventKind]int{}
	for _, ev := range f.router.Journal().Tail(0) {
		kinds[ev.Kind]++
	}
	if kinds[obs.EventLeave] == 0 || kinds[obs.EventReshard] == 0 || kinds[obs.EventRestore] == 0 {
		t.Errorf("journal missing control-plane events: %v", kinds)
	}
	// And the metrics must gate.
	text := f.routerMetrics(t)
	for _, fam := range []string{
		"wasn_fleet_replicas", "wasn_fleet_replicas_alive", "wasn_fleet_reshards_total",
		"wasn_fleet_proxied_requests_total", "wasn_fleet_restores_total", "wasn_fleet_replica_up",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("router /metrics missing %s", fam)
		}
	}
}

func (f *testFleet) routerMetrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(f.rt.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterJoinTransfersOwnership: a new replica joining takes over
// its consistent-hash share, with state pushed before the map flips.
func TestRouterJoinTransfersOwnership(t *testing.T) {
	f := newTestFleet(t, 2)
	deps := []string{"FA-150-1", "FA-150-2", "FA-150-3", "FA-150-4", "FA-150-5", "FA-150-6"}
	for i, dep := range deps {
		if code, _ := f.post(t, "/deploy", deployBody(dep, 150, uint64(i+1))); code != 200 {
			t.Fatal("deploy failed")
		}
		if code, _ := f.post(t, "/fail", map[string]any{"deployment": dep, "nodes": []int{1}}); code != 200 {
			t.Fatal("fail failed")
		}
	}
	before := map[string]int{}
	for _, dep := range deps {
		before[dep] = f.replicaFor(t, dep)
	}

	// Join r2.
	svc := serve.New(serve.Config{ReplicaID: "r2"})
	srv := httptest.NewServer(svc.Handler())
	f.svcs = append(f.svcs, svc)
	f.servers = append(f.servers, srv)
	if _, err := f.router.Join(Replica{ID: "r2", Addr: srv.URL}); err != nil {
		t.Fatal(err)
	}

	movedAny := false
	for _, dep := range deps {
		after := f.replicaFor(t, dep)
		if after == before[dep] {
			continue
		}
		movedAny = true
		if after != 2 {
			t.Errorf("%s moved to r%d on join; only the newcomer may gain", dep, after)
		}
		// The newcomer must already hold the deployment's churn history.
		failed, err := f.svcs[2].Failed(dep)
		if err != nil {
			t.Fatalf("restored deployment %s missing on r2: %v", dep, err)
		}
		if len(failed) != 1 || failed[0] != 1 {
			t.Errorf("restored failed set for %s = %v, want [1]", dep, failed)
		}
	}
	if !movedAny {
		t.Skip("no deployment re-homed to the newcomer; widen the set")
	}
}

func TestRouterNoReplicas(t *testing.T) {
	r := NewRouter(RouterConfig{HealthEvery: -1})
	defer r.Close()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/route", "application/json",
		strings.NewReader(`{"deployment":"x","algorithm":"GF","src":0,"dst":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("routing with no replicas = %d, want 502", resp.StatusCode)
	}
}

// TestRouterDesiredStateMatchesOwner sends a history with no-op
// mutations through the router — a repeated fail and a revive of an
// alive node — and requires the router's desired state to equal the
// owner's exported state, epoch included: the router must bump the
// epoch exactly when the replica does.
func TestRouterDesiredStateMatchesOwner(t *testing.T) {
	f := newTestFleet(t, 2)
	const dep = "FA-200-9"
	if code, body := f.post(t, "/deploy", deployBody(dep, 200, 9)); code != 200 {
		t.Fatalf("deploy through router: %d %s", code, body)
	}
	steps := []struct {
		path string
		body map[string]any
	}{
		{"/fail", map[string]any{"deployment": dep, "nodes": []int{3}}},
		{"/fail", map[string]any{"deployment": dep, "nodes": []int{3}}},
		{"/revive", map[string]any{"deployment": dep, "nodes": []int{7}}},
		{"/move", map[string]any{"deployment": dep, "moves": []map[string]any{{"node": 10, "x": 50, "y": 50}}}},
		{"/fail", map[string]any{"deployment": dep, "nodes": []int{10, 11, 10}}},
		{"/revive", map[string]any{"deployment": dep, "nodes": []int{3, 3}}},
	}
	for _, st := range steps {
		if code, body := f.post(t, st.path, st.body); code != 200 {
			t.Fatalf("POST %s through router: %d %s", st.path, code, body)
		}
	}

	var want, got *serve.DeploymentState
	for _, st := range f.svcs[f.replicaFor(t, dep)].ExportState() {
		if st.Name == dep {
			want = &st
		}
	}
	for _, st := range f.router.DesiredState() {
		if st.Name == dep {
			got = &st
		}
	}
	if want == nil || got == nil {
		t.Fatalf("state missing: owner %+v, router %+v", want, got)
	}
	if fmt.Sprint(got.Failed) != fmt.Sprint(want.Failed) ||
		fmt.Sprint(got.Moved) != fmt.Sprint(want.Moved) || got.Epoch != want.Epoch {
		t.Fatalf("router desired state = %+v\nowner exported state = %+v", *got, *want)
	}
}

// TestRouterForwardsRequestID: a tagged /fail sent through the router
// must reach the owner with its X-Request-Id, so the owner's journal
// attributes the repair to the client's request.
func TestRouterForwardsRequestID(t *testing.T) {
	f := newTestFleet(t, 2)
	const dep = "FA-200-9"
	if code, body := f.post(t, "/deploy", deployBody(dep, 200, 9)); code != 200 {
		t.Fatalf("deploy through router: %d %s", code, body)
	}
	req, err := http.NewRequest(http.MethodPost, f.rt.URL+"/fail",
		strings.NewReader(`{"deployment":"FA-200-9","nodes":[3]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "via-router-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tagged /fail through router: %d", resp.StatusCode)
	}

	resp, err = http.Get(f.servers[f.replicaFor(t, dep)].URL + "/events?kind=fail")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Events) != 1 || body.Events[0].RequestID != "via-router-1" {
		t.Fatalf("owner /events?kind=fail = %+v; want one event tagged via-router-1", body.Events)
	}
}
