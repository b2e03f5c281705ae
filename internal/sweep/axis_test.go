package sweep

import (
	"bytes"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/workload"
)

// mobileBase is a hostile-geometry base scenario for the non-rate
// axes: an obstacle field, a Poisson churn process, and a mobility
// schedule, at a fixed offered rate.
func mobileBase() workload.Scenario {
	return workload.Scenario{
		Name:           "hostile",
		Deployment:     workload.DeploymentSpec{Model: "ob", N: 220, Seed: 5, Coverage: 0.15},
		Algorithm:      "SLGF2",
		Arrival:        workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 1200, DurationMS: 250},
		Traffic:        workload.Traffic{Pattern: workload.TrafficConvergecast, Sinks: 3},
		ChurnProcess:   &workload.ChurnProcess{Process: "poisson", FailRateHz: 4, ReviveRateHz: 2},
		Mobility:       &workload.Mobility{Sinks: 1, DriftFraction: 0.01, IntervalMS: 100},
		WarmupRequests: 50,
		Seed:           13,
	}
}

// TestChurnAxisSweep drives a 3-rung delivery-under-churn ladder: the
// swept value must land in axis_value, the offered rate must stay
// fixed, and the revive rate must scale with the fail rate.
func TestChurnAxisSweep(t *testing.T) {
	cfg := &Config{
		Name:     "churn-axis",
		Scenario: mobileBase(),
		Axis:     AxisChurn,
		MinValue: 2, MaxValue: 8, Steps: 3,
	}
	drv := workload.NewInProcess(serve.New(serve.Config{}))
	curve, err := Run(drv, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if curve.Axis != AxisChurn {
		t.Fatalf("curve axis %q; want %q", curve.Axis, AxisChurn)
	}
	if len(curve.Rungs) != 3 {
		t.Fatalf("got %d rungs; want 3", len(curve.Rungs))
	}
	wantVals := []float64{2, 4, 8}
	for i, r := range curve.Rungs {
		if diff := r.AxisValue - wantVals[i]; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("rung %d axis value %g; want %g", i, r.AxisValue, wantVals[i])
		}
		if r.OfferedRPS != 1200 {
			t.Fatalf("rung %d offered %.0f; churn axis must hold the rate at 1200", i, r.OfferedRPS)
		}
		if r.Requests == 0 || r.DeliveryRate <= 0 {
			t.Fatalf("rung %d implausible: %+v", i, r)
		}
		if r.MovedNodes == 0 {
			t.Fatalf("rung %d recorded no mobility; the schedule should have run", i)
		}
	}
	if !strings.Contains(curve.Summary(), "churn curve") || !strings.Contains(curve.Summary(), "fail/s") {
		t.Fatalf("summary lacks axis labeling:\n%s", curve.Summary())
	}
	// The artifact must round-trip with the axis intact.
	var buf bytes.Buffer
	if err := curve.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCurve(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Axis != AxisChurn || back.Rungs[2].AxisValue != curve.Rungs[2].AxisValue {
		t.Fatalf("JSON round-trip dropped the axis: %+v", back)
	}
	// Compare must anchor non-rate curves on the axis value.
	if regs := Compare(back, curve, Tolerance{}); len(regs) != 0 {
		t.Fatalf("curve regressed against itself: %v", regs)
	}
}

// TestCoverageAxisDeploysPerRung pins that each coverage rung builds a
// distinct deployment rather than silently reusing the first rung's
// topology under a shared name.
func TestCoverageAxisDeploysPerRung(t *testing.T) {
	sc := mobileBase()
	sc.ChurnProcess = nil
	sc.Mobility = nil
	cfg := &Config{
		Name:     "coverage-axis",
		Scenario: sc,
		Axis:     AxisCoverage,
		MinValue: 0.1, MaxValue: 0.3, Steps: 2,
	}
	drv := workload.NewInProcess(serve.New(serve.Config{}))
	curve, err := Run(drv, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Rungs) != 2 {
		t.Fatalf("got %d rungs; want 2", len(curve.Rungs))
	}
	st, err := drv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range st.PerDeployment {
		names[d.Name] = true
	}
	if len(names) < 2 {
		t.Fatalf("coverage sweep reused one deployment: %v", names)
	}
}

// moveCounter passes every call to the wrapped driver and records, in
// order, the deployment each run registers and the moved nodes each
// deployment absorbs.
type moveCounter struct {
	workload.Driver
	deployed []string
	moved    map[string]int64
}

func (d *moveCounter) Deploy(name string, spec workload.DeploymentSpec) (string, error) {
	eff, err := d.Driver.Deploy(name, spec)
	d.deployed = append(d.deployed, eff)
	return eff, err
}

func (d *moveCounter) Mutate(deployment string, m serve.Mutation) error {
	err := d.Driver.Mutate(deployment, m)
	if err == nil {
		d.moved[deployment] += int64(len(m.Moves))
	}
	return err
}

// TestDriftAxisRungsStartPristine pins that a drift rung starts from
// the pristine topology: reviving the churn a rung leaves behind cannot
// undo its moves, so each rung needs a deployment of its own that
// absorbs only that rung's move batches.
func TestDriftAxisRungsStartPristine(t *testing.T) {
	cfg := &Config{
		Name:     "drift-axis",
		Scenario: mobileBase(),
		Axis:     AxisDrift,
		MinValue: 0.01, MaxValue: 0.04, Steps: 3,
	}
	drv := &moveCounter{Driver: workload.NewInProcess(serve.New(serve.Config{})), moved: map[string]int64{}}
	curve, err := Run(drv, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Rungs) != 3 || len(drv.deployed) != 3 {
		t.Fatalf("got %d rungs over %d deploys; want 3/3", len(curve.Rungs), len(drv.deployed))
	}
	for i, r := range curve.Rungs {
		dep := drv.deployed[i]
		if r.MovedNodes == 0 {
			t.Fatalf("rung %d recorded no mobility; the schedule should have run", i)
		}
		if got := drv.moved[dep]; got != r.MovedNodes {
			t.Fatalf("rung %d: deployment %s absorbed %d moved nodes; the rung moved %d", i, dep, got, r.MovedNodes)
		}
	}
}

// TestAxisValidation pins the per-axis config rejections.
func TestAxisValidation(t *testing.T) {
	base := mobileBase()
	cases := map[string]func(*Config){
		"unknown axis":         func(c *Config) { c.Axis = "wobble" },
		"no min/max value":     func(c *Config) { c.MinValue, c.MaxValue = 0, 0 },
		"inverted values":      func(c *Config) { c.MinValue, c.MaxValue = 8, 2 },
		"bisect on churn axis": func(c *Config) { c.Mode = ModeBisect },
		"churn without process": func(c *Config) {
			sc := base
			sc.ChurnProcess = nil
			c.Scenario = sc
		},
		"drift without mobility": func(c *Config) {
			sc := base
			sc.Mobility = nil
			c.Axis = AxisDrift
			c.Scenario = sc
		},
		"drift above 1": func(c *Config) { c.Axis = AxisDrift; c.MaxValue = 1.5 },
		"coverage on fa model": func(c *Config) {
			sc := base
			sc.Deployment = workload.DeploymentSpec{Model: "fa", N: 220, Seed: 5}
			c.Axis = AxisCoverage
			c.Scenario = sc
		},
		"coverage at 1": func(c *Config) { c.Axis = AxisCoverage; c.MaxValue = 1 },
		"fixed rate unset": func(c *Config) {
			sc := base
			sc.Arrival.RateHz = 0
			c.Scenario = sc
		},
	}
	for name, mutate := range cases {
		cfg := &Config{Name: "x", Scenario: base, Axis: AxisChurn, MinValue: 2, MaxValue: 8, Steps: 3}
		mutate(cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
	// The happy path still validates.
	cfg := &Config{Name: "ok", Scenario: base, Axis: AxisChurn, MinValue: 2, MaxValue: 8, Steps: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid churn-axis config rejected: %v", err)
	}
}
