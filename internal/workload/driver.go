package workload

import (
	"fmt"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// Outcome is the per-request result the engine records.
type Outcome struct {
	Delivered bool
	Hops      int
	Cached    bool
}

// Driver abstracts where a scenario's requests land: in-process against
// a serve.Service, or over HTTP against a running wasnd. Route must be
// safe for concurrent use; Mutate may run concurrently with Route (the
// serve layer serializes internally — that concurrency is the point of
// churn-under-load scenarios).
//
// A Route error means the request itself failed (unknown deployment,
// out-of-range node, transport failure) — an *undelivered* route is a
// successful request whose Outcome.Delivered is false.
type Driver interface {
	// Name labels the driver in reports ("inprocess", "http" or
	// "fleet").
	Name() string
	// Deploy registers the deployment and builds its substrates.
	Deploy(name string, spec DeploymentSpec) (string, error)
	// Route routes one packet.
	Route(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error)
	// Mutate applies one topology change — nodes failing, reviving or
	// moving; the serve layer repairs the substrates in place.
	Mutate(deployment string, m serve.Mutation) error
	// Stats snapshots the server counters for the report.
	Stats() (serve.Stats, error)
	// Events fetches up to max event-journal entries, oldest first
	// (max <= 0: the whole retained ring).
	Events(max int) ([]obs.Event, error)
	// Close releases driver resources.
	Close() error
}

// InProcess drives a serve.Service directly — no wire, measuring the
// service layer itself.
type InProcess struct {
	svc *serve.Service
}

// NewInProcess wraps an existing service (the wasnd -load shim passes a
// freshly configured one).
func NewInProcess(svc *serve.Service) *InProcess {
	return &InProcess{svc: svc}
}

// Name implements Driver.
func (d *InProcess) Name() string { return "inprocess" }

// Deploy implements Driver.
func (d *InProcess) Deploy(name string, spec DeploymentSpec) (string, error) {
	model, err := topo.ParseDeployModel(spec.Model)
	if err != nil {
		return "", err
	}
	eff, err := d.svc.Deploy(name, serve.Spec{Model: model, N: spec.N, Seed: spec.Seed, Coverage: spec.Coverage})
	if err != nil {
		return "", err
	}
	if err := d.svc.Build(eff); err != nil {
		return "", err
	}
	return eff, nil
}

// Route implements Driver.
func (d *InProcess) Route(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error) {
	res, cached, err := d.svc.Route(deployment, algorithm, src, dst)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Delivered: res.Delivered, Hops: res.Hops(), Cached: cached}, nil
}

// Mutate implements Driver.
func (d *InProcess) Mutate(deployment string, m serve.Mutation) error {
	return d.svc.Mutate(deployment, m, "")
}

// Stats implements Driver.
func (d *InProcess) Stats() (serve.Stats, error) { return d.svc.Stats(), nil }

// Events implements Driver.
func (d *InProcess) Events(max int) ([]obs.Event, error) {
	return d.svc.Events(0, max), nil
}

// Close implements Driver; the service holds nothing to release.
func (d *InProcess) Close() error { return nil }

// NewDriver builds the driver a scenario run asks for: "inprocess"
// (cfg configures the private service), "http" (every call goes to
// target, a wasnd or a fleet router's proxy tier), or "fleet" (the
// http driver with the shard map of the router at target; routes go
// replica-direct).
func NewDriver(kind, target string, cfg serve.Config) (Driver, error) {
	switch kind {
	case "", "inprocess":
		return NewInProcess(serve.New(cfg)), nil
	case "http", "fleet":
		if target == "" {
			return nil, fmt.Errorf("workload: %s driver needs a target base URL", kind)
		}
		if kind == "http" {
			return NewHTTP(target), nil
		}
		return NewFleet(target)
	default:
		return nil, fmt.Errorf("workload: unknown driver %q (want inprocess, http or fleet)", kind)
	}
}
