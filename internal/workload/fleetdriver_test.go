package workload

import (
	"fmt"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/fleet"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// fleetHarness runs a router plus replicas (HTTP + binary) in-process.
type fleetHarness struct {
	router  *fleet.Router
	rt      *httptest.Server
	svcs    []*serve.Service
	https   []*httptest.Server
	binarys []*fleet.BinaryServer
}

func newFleetHarness(t *testing.T, n int, healthEvery time.Duration) *fleetHarness {
	t.Helper()
	h := &fleetHarness{
		router: fleet.NewRouter(fleet.RouterConfig{
			HealthEvery:   healthEvery,
			HealthStrikes: 2,
			HealthTimeout: 300 * time.Millisecond,
		}),
	}
	h.rt = httptest.NewServer(h.router.Handler())
	t.Cleanup(func() {
		h.rt.Close()
		h.router.Close()
		for i := range h.svcs {
			h.binarys[i].Close()
			h.https[i].Close()
		}
	})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		svc := serve.New(serve.Config{ReplicaID: id})
		hs := httptest.NewServer(svc.Handler())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		bs := fleet.NewBinaryServer(svc, ln)
		h.svcs = append(h.svcs, svc)
		h.https = append(h.https, hs)
		h.binarys = append(h.binarys, bs)
		if _, err := h.router.Join(fleet.Replica{ID: id, Addr: hs.URL, BinaryAddr: bs.Addr()}); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *fleetHarness) killOwner(t *testing.T, deployment string) int {
	t.Helper()
	rep, ok := h.router.Map().Owner(deployment)
	if !ok {
		t.Fatalf("no owner for %q", deployment)
	}
	var idx int
	if _, err := fmt.Sscanf(rep.ID, "r%d", &idx); err != nil {
		t.Fatal(err)
	}
	h.binarys[idx].Close()
	h.https[idx].Close()
	return idx
}

// TestFleetDriverBinaryRoutes: the "fleet" driver must route over the
// binary transport (not HTTP) and agree with the owning replica.
func TestFleetDriverBinaryRoutes(t *testing.T) {
	h := newFleetHarness(t, 3, -1)
	d, err := NewFleet(h.rt.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Name() != "fleet" {
		t.Fatalf("Name = %q", d.Name())
	}

	name, err := d.Deploy("", DeploymentSpec{Model: "fa", N: 180, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("empty deployment name")
	}
	out, err := d.Route(name, "SLGF2", 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := h.router.Map().Owner(name)
	var idx int
	fmt.Sscanf(rep.ID, "r%d", &idx)
	want, _, err := h.svcs[idx].Route(name, "SLGF2", 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != want.Delivered || out.Hops != want.Hops() {
		t.Fatalf("driver route %+v diverged from direct %+v", out, want)
	}
	_, batches, _ := h.binarys[idx].Stats()
	if batches == 0 {
		t.Fatal("binary transport unused: routes went over HTTP")
	}

	// Churn through the driver updates the actual topology.
	if err := d.Mutate(name, serve.Mutation{Kind: serve.MutationFail, Nodes: []topo.NodeID{7, 8}}); err != nil {
		t.Fatal(err)
	}
	failed, err := h.svcs[idx].Failed(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("failed set = %v", failed)
	}

	// Permanent errors must fail fast, not retry for the whole window.
	start := time.Now()
	if _, err := d.Route(name, "SLGF2", -5, 3); err == nil {
		t.Fatal("out-of-range src accepted")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("permanent error burned the retry window")
	}

	// Aggregate surfaces.
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Routes == 0 {
		t.Fatalf("aggregate stats lost the routes: %+v", st)
	}
}

// TestFleetDriverSurvivesOwnerKill is the driver half of the chaos
// contract: kill the owning replica mid-run and keep routing — the
// retry-with-remap loop must mask the outage window completely.
func TestFleetDriverSurvivesOwnerKill(t *testing.T) {
	h := newFleetHarness(t, 3, 50*time.Millisecond)
	d, err := NewFleet(h.rt.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	name, err := d.Deploy("", DeploymentSpec{Model: "fa", N: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mutate(name, serve.Mutation{Kind: serve.MutationFail, Nodes: []topo.NodeID{11, 12}}); err != nil {
		t.Fatal(err)
	}
	want, err := d.Route(name, "SLGF2", 0, 130)
	if err != nil {
		t.Fatal(err)
	}

	killed := h.killOwner(t, name)

	// Routes must keep succeeding through the kill: the health loop
	// marks the owner dead within ~150ms, restores state on a survivor,
	// and the driver remaps. No request in this loop may error.
	deadline := time.Now().Add(8 * time.Second)
	remapped := false
	for time.Now().Before(deadline) {
		out, err := d.Route(name, "SLGF2", 0, 130)
		if err != nil {
			t.Fatalf("route failed during re-shard: %v", err)
		}
		if out.Delivered != want.Delivered || out.Hops != want.Hops {
			t.Fatalf("route diverged during re-shard: %+v != %+v", out, want)
		}
		if rep, ok := h.router.Map().Owner(name); ok && rep.ID != fmt.Sprintf("r%d", killed) {
			remapped = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !remapped {
		t.Fatal("ownership never moved off the killed replica")
	}
	// After the remap the restored replica must answer identically,
	// with the churn history intact.
	out, err := d.Route(name, "SLGF2", 0, 130)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != want.Delivered || out.Hops != want.Hops {
		t.Fatalf("post-reshard route diverged: %+v != %+v", out, want)
	}
	// The control-plane journal must show the leave/reshard/restore.
	evs, err := d.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var sawReshard, sawRestore bool
	for _, ev := range evs {
		switch ev.Kind.String() {
		case "reshard":
			sawReshard = true
		case "restore":
			sawRestore = true
		}
	}
	if !sawReshard || !sawRestore {
		t.Fatalf("journal missing reshard/restore events: %+v", evs)
	}
}

// TestFleetDriverJSONFallback: a replica that joined without a
// BinaryAddr (wasnd started without -binary-port) is routed over
// HTTP/JSON, and the answer matches the replica's own.
func TestFleetDriverJSONFallback(t *testing.T) {
	router := fleet.NewRouter(fleet.RouterConfig{HealthEvery: -1})
	rt := httptest.NewServer(router.Handler())
	svc := serve.New(serve.Config{ReplicaID: "r0"})
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		rt.Close()
		router.Close()
		hs.Close()
	})
	if _, err := router.Join(fleet.Replica{ID: "r0", Addr: hs.URL}); err != nil {
		t.Fatal(err)
	}
	d, err := NewFleet(rt.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	name, err := d.Deploy("", DeploymentSpec{Model: "fa", N: 180, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Route(name, "SLGF2", 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := svc.Route(name, "SLGF2", 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered != want.Delivered || out.Hops != want.Hops() {
		t.Fatalf("driver route %+v diverged from direct %+v", out, want)
	}
	if n := len(d.pools); n != 0 {
		t.Fatalf("%d binary pools dialed for a replica without a binary address", n)
	}
	if st := svc.Stats(); st.Routes < 2 {
		t.Fatalf("replica answered %d routes; want the driver's JSON route plus the direct one", st.Routes)
	}
}

func TestNewDriverFleetKinds(t *testing.T) {
	h := newFleetHarness(t, 1, -1)
	d, err := NewDriver("fleet", h.rt.URL, serve.Config{})
	if err != nil {
		t.Fatalf("NewDriver(fleet): %v", err)
	}
	if d.Name() != "fleet" {
		t.Errorf("NewDriver(fleet).Name() = %q", d.Name())
	}
	d.Close()
	if _, err := NewDriver("fleet", "", serve.Config{}); err == nil {
		t.Error("fleet driver without target accepted")
	}
	if _, err := NewDriver("fleet-http", h.rt.URL, serve.Config{}); err == nil {
		t.Error("retired fleet-http driver accepted")
	}
}

// TestFleetDriverStatsAggregate: fleet Stats sums counters across
// replicas, derives the hit rate from the summed hits and misses (not
// the sum of per-replica rates), keeps every replica's per-deployment
// rows sorted by name, and fails when no replica answers.
func TestFleetDriverStatsAggregate(t *testing.T) {
	h := newFleetHarness(t, 3, -1)
	d, err := NewFleet(h.rt.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Deploy until at least two replicas own a deployment.
	var names []string
	owners := map[string]bool{}
	for seed := uint64(1); len(owners) < 2; seed++ {
		if seed > 20 {
			t.Fatal("20 deployments all landed on one replica")
		}
		name, err := d.Deploy("", DeploymentSpec{Model: "fa", N: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		rep, _ := h.router.Map().Owner(name)
		owners[rep.ID] = true
	}
	// One miss and one hit per deployment: every owner sits at 50%.
	for _, name := range names {
		for i := 0; i < 2; i++ {
			if _, err := d.Route(name, "GF", 0, 100); err != nil {
				t.Fatal(err)
			}
		}
	}

	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deployments != len(names) || st.Routes != int64(2*len(names)) {
		t.Fatalf("summed counters = %d deployments, %d routes; want %d, %d",
			st.Deployments, st.Routes, len(names), 2*len(names))
	}
	if st.CacheHits != int64(len(names)) || st.CacheMisses != int64(len(names)) || st.CacheHitRate != 0.5 {
		t.Fatalf("cache = %d hits, %d misses, rate %v; want %d, %d, 0.5",
			st.CacheHits, st.CacheMisses, st.CacheHitRate, len(names), len(names))
	}
	if len(st.PerDeployment) != len(names) {
		t.Fatalf("per-deployment rows %+v; want one per deployment %v", st.PerDeployment, names)
	}
	for i := 1; i < len(st.PerDeployment); i++ {
		if st.PerDeployment[i-1].Name >= st.PerDeployment[i].Name {
			t.Fatalf("per-deployment rows not sorted by name: %+v", st.PerDeployment)
		}
	}

	for i := range h.https {
		h.https[i].Close()
	}
	if _, err := d.Stats(); err == nil {
		t.Fatal("Stats with every replica down returned no error")
	}
}
