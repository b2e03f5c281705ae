package workload

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

func newHTTPFixture(t *testing.T) (*HTTP, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	drv := NewHTTP(ts.URL)
	t.Cleanup(func() { _ = drv.Close() })
	return drv, ts
}

func TestHTTPDriverRoundTrip(t *testing.T) {
	drv, _ := newHTTPFixture(t)
	name, err := drv.Deploy("", tinyDeployment)
	if err != nil {
		t.Fatal(err)
	}
	if name != "FA-300-7" {
		t.Fatalf("deploy returned name %q", name)
	}
	// Redeploying the same spec over the wire is idempotent.
	if _, err := drv.Deploy("", tinyDeployment); err != nil {
		t.Fatalf("idempotent redeploy: %v", err)
	}
	out, err := drv.Route(name, "SLGF2", 3, 250)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("first route reported cached")
	}
	again, err := drv.Route(name, "SLGF2", 3, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Hops != out.Hops || again.Delivered != out.Delivered {
		t.Fatalf("cached route diverged: %+v vs %+v", again, out)
	}
	if err := drv.Mutate(name, serve.Mutation{Kind: serve.MutationFail, Nodes: []topo.NodeID{10, 11}}); err != nil {
		t.Fatal(err)
	}
	if err := drv.Mutate(name, serve.Mutation{Kind: serve.MutationRevive, Nodes: []topo.NodeID{10, 11}}); err != nil {
		t.Fatal(err)
	}
	st, err := drv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Routes < 2 || st.FailedNodes != 2 || st.RevivedNodes != 2 {
		t.Fatalf("stats over the wire = %+v", st)
	}
	if len(st.PerDeployment) != 1 || st.PerDeployment[0].Repairs != 2 {
		t.Fatalf("per-deployment stats over the wire = %+v", st.PerDeployment)
	}
}

// TestHTTPDriverErrorPaths pins that server-side 4xx errors surface as
// driver errors carrying the server's message.
func TestHTTPDriverErrorPaths(t *testing.T) {
	drv, _ := newHTTPFixture(t)
	if _, err := drv.Route("ghost", "SLGF2", 0, 1); err == nil || !strings.Contains(err.Error(), "unknown deployment") {
		t.Fatalf("unknown deployment error = %v", err)
	}
	name, err := drv.Deploy("", tinyDeployment)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drv.Route(name, "NOPE", 0, 1); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown algorithm error = %v", err)
	}
	if _, err := drv.Route(name, "SLGF2", 0, topo.NodeID(tinyDeployment.N)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range error = %v", err)
	}
	if err := drv.Mutate(name, serve.Mutation{Kind: serve.MutationFail, Nodes: []topo.NodeID{-1}}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("fail out-of-range error = %v", err)
	}
	if _, err := drv.Deploy("", DeploymentSpec{Model: "hex", N: 10, Seed: 1}); err == nil {
		t.Fatal("bad model deployed over the wire")
	}
}

// TestRunUnreachableTarget pins the all-errors outcome: a scenario
// against a dead server must fail loudly, not report zeros.
func TestRunUnreachableTarget(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	ts.Close() // immediately dead
	sc := &Scenario{
		Name:       "dead-target",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalClosed, Requests: 4},
		Traffic:    Traffic{Pattern: TrafficUniform, Pairs: 16},
	}
	if _, err := Run(NewHTTP(ts.URL), sc); err == nil {
		t.Fatal("run against a closed server succeeded")
	}
}

func TestNewDriverValidation(t *testing.T) {
	if _, err := NewDriver("http", "", serve.Config{}); err == nil {
		t.Fatal("http driver without target accepted")
	}
	if _, err := NewDriver("carrier-pigeon", "", serve.Config{}); err == nil {
		t.Fatal("unknown driver kind accepted")
	}
	d, err := NewDriver("", "", serve.Config{})
	if err != nil || d.Name() != "inprocess" {
		t.Fatalf("default driver = %v, %v", d, err)
	}
}

// TestHTTPChurnStorm runs the open-loop churn scenario end to end over
// a real wire — the HTTP half of the acceptance storm; under -race it
// also pins the driver's concurrent connection reuse.
func TestHTTPChurnStorm(t *testing.T) {
	drv, _ := newHTTPFixture(t)
	sc := &Scenario{
		Name:       "http-churn",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 800, DurationMS: 600, Concurrency: 8},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
		Churn: []ChurnEvent{
			{AtMS: 200, FailRandom: 3},
			{AtMS: 400, ReviveAll: true},
		},
		WarmupRequests: 20,
	}
	rep, err := Run(drv, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors over the wire, first: %s", rep.Errors, rep.ErrorSample)
	}
	if rep.Driver != "http" {
		t.Fatalf("driver label = %q", rep.Driver)
	}
	if len(rep.Churn) != 2 || rep.Churn[0].Err != "" || rep.Churn[1].Err != "" {
		t.Fatalf("churn over the wire: %+v", rep.Churn)
	}
	if rep.Server == nil || rep.Server.PerDeployment[0].Repairs != 2 {
		t.Fatalf("server stats after storm: %+v", rep.Server)
	}
	if rep.DeliveryRate < 0.8 {
		t.Fatalf("delivery rate %.2f", rep.DeliveryRate)
	}
}
