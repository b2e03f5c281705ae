package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/workload"
)

// Ladder modes.
const (
	ModeGeometric = "geometric"
	ModeBisect    = "bisect"
)

// Sweep axes: which scenario knob the ladder walks.
const (
	// AxisRate sweeps the open-loop offered rate (the capacity curve).
	AxisRate = "rate"
	// AxisChurn sweeps the Poisson churn process's fail rate, scaling
	// the revive rate proportionally — the delivery-under-churn curve.
	AxisChurn = "churn"
	// AxisDrift sweeps the mobility schedule's drift fraction.
	AxisDrift = "drift"
	// AxisCoverage sweeps the obstacle-field coverage, redeploying per
	// rung (each coverage is a different topology).
	AxisCoverage = "coverage"
)

// Config describes one sweep: a base scenario with one knob — offered
// rate by default, or churn rate / drift fraction / obstacle coverage —
// swept over a ladder of values.
type Config struct {
	// Name labels the curve artifact.
	Name string `json:"name"`
	// Scenario is the base workload; its arrival process must be
	// open-loop (poisson or bursty).
	Scenario workload.Scenario `json:"scenario"`
	// Axis selects the swept knob (default "rate"). Non-rate axes hold
	// the offered rate fixed at the scenario's rate_hz and ladder over
	// min_value..max_value instead of min_rate_hz..max_rate_hz: "churn"
	// needs a churn_process in the scenario, "drift" a mobility block,
	// "coverage" an obstacle-field (ob) deployment.
	Axis string `json:"axis,omitempty"`
	// MinRateHz..MaxRateHz bound the rate ladder (axis "rate" only).
	MinRateHz float64 `json:"min_rate_hz,omitempty"`
	MaxRateHz float64 `json:"max_rate_hz,omitempty"`
	// MinValue..MaxValue bound the ladder for non-rate axes.
	MinValue float64 `json:"min_value,omitempty"`
	MaxValue float64 `json:"max_value,omitempty"`
	// Steps is the geometric ladder's rung count (>= 2).
	Steps int `json:"steps"`
	// Mode is "geometric" (default) or "bisect" — geometric ladder plus
	// adaptive bisection refining the knee between the last unsaturated
	// and first saturated rung.
	Mode string `json:"mode,omitempty"`
	// BisectIters is the number of bisection refinements (default 3).
	BisectIters int `json:"bisect_iters,omitempty"`
	// RungDurationMS overrides the scenario's duration per rung.
	RungDurationMS int `json:"rung_duration_ms,omitempty"`
	// KneeTolerance is the saturation band: a rung is saturated when
	// achieved < offered × (1 − KneeTolerance). Default 0.1.
	KneeTolerance float64 `json:"knee_tolerance,omitempty"`
	// CliffFactor flags the p99 cliff: the first rung whose p99 is at
	// least CliffFactor × the smallest p99 of any earlier rung. Default 3.
	CliffFactor float64 `json:"cliff_factor,omitempty"`
	// StopOnCollapse ends the ladder early once a rung achieves less
	// than half its offered rate — the curve past total collapse only
	// costs wall-clock. The curve records how many rungs were skipped.
	StopOnCollapse bool `json:"stop_on_collapse,omitempty"`
}

// Validate checks the config and fills defaults.
func (c *Config) Validate() error {
	if c.Name == "" {
		c.Name = c.Scenario.Name
	}
	p := c.Scenario.Arrival.Process
	if p != workload.ArrivalPoisson && p != workload.ArrivalBursty {
		return fmt.Errorf("sweep: arrival process %q is not open-loop (the sweep axis is rate_hz)", p)
	}
	if c.RungDurationMS > 0 {
		c.Scenario.Arrival.DurationMS = c.RungDurationMS
	}
	if c.Axis == "" {
		c.Axis = AxisRate
	}
	if c.Scenario.Arrival.RateHz == 0 && c.Axis == AxisRate {
		c.Scenario.Arrival.RateHz = c.MinRateHz
	}
	if err := c.Scenario.Validate(); err != nil {
		return err
	}
	switch c.Axis {
	case AxisRate:
		if c.MinRateHz <= 0 || c.MaxRateHz < c.MinRateHz {
			return fmt.Errorf("sweep: need 0 < min_rate_hz <= max_rate_hz, got [%v, %v]", c.MinRateHz, c.MaxRateHz)
		}
	case AxisChurn, AxisDrift, AxisCoverage:
		if c.Scenario.Arrival.RateHz <= 0 {
			return fmt.Errorf("sweep: axis %q holds the offered rate fixed; set the scenario's rate_hz", c.Axis)
		}
		if c.MinValue <= 0 || c.MaxValue < c.MinValue {
			return fmt.Errorf("sweep: need 0 < min_value <= max_value, got [%v, %v]", c.MinValue, c.MaxValue)
		}
		if c.Mode == ModeBisect {
			return fmt.Errorf("sweep: bisect mode refines the rate knee; axis %q supports only the geometric ladder", c.Axis)
		}
		switch c.Axis {
		case AxisChurn:
			if c.Scenario.ChurnProcess == nil || c.Scenario.ChurnProcess.FailRateHz <= 0 {
				return fmt.Errorf("sweep: axis churn sweeps the scenario's churn_process fail rate; none configured")
			}
		case AxisDrift:
			if c.Scenario.Mobility == nil {
				return fmt.Errorf("sweep: axis drift sweeps the scenario's mobility drift fraction; no mobility block configured")
			}
			if c.MaxValue > 1 {
				return fmt.Errorf("sweep: drift fraction max_value %v exceeds 1", c.MaxValue)
			}
		case AxisCoverage:
			if !strings.EqualFold(c.Scenario.Deployment.Model, "ob") {
				return fmt.Errorf("sweep: axis coverage needs an obstacle-field (ob) deployment, got %q", c.Scenario.Deployment.Model)
			}
			if c.MaxValue >= 1 {
				return fmt.Errorf("sweep: obstacle coverage max_value %v must stay below 1", c.MaxValue)
			}
		}
	default:
		return fmt.Errorf("sweep: unknown axis %q (want %s, %s, %s, or %s)", c.Axis, AxisRate, AxisChurn, AxisDrift, AxisCoverage)
	}
	if c.Steps < 2 {
		return fmt.Errorf("sweep: need steps >= 2, got %d", c.Steps)
	}
	switch c.Mode {
	case "":
		c.Mode = ModeGeometric
	case ModeGeometric, ModeBisect:
	default:
		return fmt.Errorf("sweep: unknown mode %q (want %s or %s)", c.Mode, ModeGeometric, ModeBisect)
	}
	if c.BisectIters <= 0 {
		c.BisectIters = 3
	}
	if c.KneeTolerance <= 0 {
		c.KneeTolerance = 0.1
	}
	if c.CliffFactor <= 1 {
		c.CliffFactor = 3
	}
	return nil
}

// ParseConfig strictly decodes a sweep config JSON document and
// validates it.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("sweep: bad config JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// ParseConfigFile reads and parses a sweep config file.
func ParseConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	c, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return c, nil
}

// Options tune a sweep run.
type Options struct {
	// ProgressWriter, when non-nil, streams live progress while the
	// ladder runs: one "[sweep]" line as each rung completes, plus the
	// workload engine's in-run ticker lines for the rung in flight.
	ProgressWriter io.Writer
	// ProgressEveryMS is the in-run ticker period forwarded to the
	// workload engine (default 1000).
	ProgressEveryMS int
}

// progressf emits one live "[sweep]" progress line, if streaming.
func (o Options) progressf(format string, args ...any) {
	if o.ProgressWriter != nil {
		fmt.Fprintf(o.ProgressWriter, "[sweep] "+format+"\n", args...)
	}
}

// Span returns the ladder's bounds and the unit of the swept value.
func (c *Config) Span() (lo, hi float64, unit string) {
	if c.Axis == AxisRate {
		return c.MinRateHz, c.MaxRateHz, axisUnit(c.Axis)
	}
	return c.MinValue, c.MaxValue, axisUnit(c.Axis)
}

// Run executes the ladder against one driver and assembles the curve.
// Rate and churn rungs share the driver's deployment and its route
// cache (the cached share per rung is part of the curve); any churn a
// rung leaves behind is revived before the next rung. Drift and
// coverage rungs each get a deployment of their own. Either way every
// rung starts from the pristine topology.
func Run(drv workload.Driver, cfg *Config, opt Options) (*CapacityCurve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	curve := &CapacityCurve{
		Name:          cfg.Name,
		Scenario:      cfg.Scenario.Name,
		Driver:        drv.Name(),
		Deployment:    cfg.Scenario.Deployment,
		Algorithm:     cfg.Scenario.Algorithm,
		Axis:          cfg.Axis,
		Mode:          cfg.Mode,
		KneeTolerance: cfg.KneeTolerance,
		CliffFactor:   cfg.CliffFactor,
	}

	curve.StartUnixMs = time.Now().UnixMilli()

	lo, hi, unit := cfg.Span()
	for i, v := range ladder(lo, hi, cfg.Steps) {
		r, err := runRung(drv, cfg, v, i, opt)
		if err != nil {
			return nil, err
		}
		curve.Rungs = append(curve.Rungs, r)
		opt.progressf("rung %d/%d @%g %s: achieved %.0f req/s, delivered %.2f%%, p99=%.1fus",
			i+1, cfg.Steps, v, unit, r.AchievedRPS, 100*r.DeliveryRate, r.Latency.P99us)
		// Collapse cuts the ladder short: rate rungs collapse by failing
		// to achieve the offered rate, non-rate rungs (fixed rate) by
		// delivery falling through the floor.
		collapsed := r.AchievedRPS < r.OfferedRPS/2
		if cfg.Axis != AxisRate {
			collapsed = r.DeliveryRate < 0.5
		}
		if cfg.StopOnCollapse && collapsed {
			curve.SkippedRungs = cfg.Steps - i - 1
			opt.progressf("collapse at %g %s: skipping %d remaining rungs", v, unit, curve.SkippedRungs)
			break
		}
	}

	curve.detect()
	if cfg.Mode == ModeBisect && curve.KneeRung > 0 {
		if err := bisect(drv, cfg, curve, opt); err != nil {
			return nil, err
		}
	}
	// The journal of the whole ladder; absent on drivers without the
	// surface.
	if evs, err := drv.Events(0); err == nil {
		for _, ev := range evs {
			if ev.UnixMS >= curve.StartUnixMs {
				curve.Journal = append(curve.Journal, ev)
			}
		}
	}
	return curve, nil
}

// ladder returns the geometric rate ladder, endpoints included.
func ladder(lo, hi float64, steps int) []float64 {
	rates := make([]float64, steps)
	ratio := hi / lo
	for i := range rates {
		rates[i] = lo * math.Pow(ratio, float64(i)/float64(steps-1))
	}
	rates[steps-1] = hi
	return rates
}

// axisUnit names a swept value's unit for progress lines and summaries.
func axisUnit(axis string) string {
	switch axis {
	case AxisChurn:
		return "fail/s"
	case AxisDrift:
		return "drift"
	case AxisCoverage:
		return "coverage"
	default:
		return "req/s"
	}
}

// runRung executes the base scenario at one swept value and distills
// the rung. The scenario value is copied per rung (Run mutates it);
// the churn schedule is shared read-only and any nodes it left dead
// are revived afterwards. Moves cannot be undone that way, so a drift
// rung, like a coverage rung, deploys afresh.
func runRung(drv workload.Driver, cfg *Config, v float64, idx int, opt Options) (Rung, error) {
	sc := cfg.Scenario // copy
	sc.Name = fmt.Sprintf("%s@%g", cfg.Scenario.Name, v)
	sc.Churn = append([]workload.ChurnEvent(nil), cfg.Scenario.Churn...)
	switch cfg.Axis {
	case AxisChurn:
		// Scale fail and revive rates together so the swept value moves
		// churn *pressure*, not the dead-population equilibrium shape.
		cp := *cfg.Scenario.ChurnProcess
		scale := v / cp.FailRateHz
		cp.FailRateHz = v
		cp.ReviveRateHz *= scale
		sc.ChurnProcess = &cp
	case AxisDrift:
		mb := *cfg.Scenario.Mobility
		mb.DriftFraction = v
		sc.Mobility = &mb
		sc.Deployment.Name = sc.Name
	case AxisCoverage:
		// Each coverage is a different topology: clear any explicit
		// deployment name so the driver default-names (and builds) a
		// distinct deployment per rung instead of silently reusing the
		// first rung's network.
		sc.Deployment.Coverage = v
		sc.Deployment.Name = ""
	default:
		sc.Arrival.RateHz = v
	}
	if idx > 0 && cfg.Axis != AxisCoverage && cfg.Axis != AxisDrift {
		// The first rung paid the build and primed the cache; repeating
		// the warmup every rung would only re-skew the cached share.
		// (Drift and coverage rungs deploy afresh, so each keeps its
		// warmup.)
		sc.WarmupRequests = 0
	}
	rep, err := workload.RunWith(drv, &sc, workload.Options{
		Progress:        opt.ProgressWriter,
		ProgressEveryMS: opt.ProgressEveryMS,
	})
	if err != nil {
		return Rung{}, fmt.Errorf("sweep: rung at %g %s: %w", v, axisUnit(cfg.Axis), err)
	}
	if err := reviveResidual(drv, rep); err != nil {
		return Rung{}, fmt.Errorf("sweep: restoring topology after rung at %g %s: %w", v, axisUnit(cfg.Axis), err)
	}
	return Rung{
		AxisValue:    v,
		OfferedRPS:   rep.OfferedRPS,
		AchievedRPS:  rep.ThroughputRPS,
		Requests:     rep.Requests,
		Dropped:      rep.Dropped,
		Errors:       rep.Errors,
		DeliveryRate: rep.DeliveryRate,
		MovedNodes:   rep.MovedNodes,
		CachedShare:  rep.CachedShare,
		Latency:      rep.Latency,
		ElapsedMS:    rep.ElapsedMS,
	}, nil
}

// reviveResidual brings back every node the rung's churn schedule left
// dead, so rungs stay comparable.
func reviveResidual(drv workload.Driver, rep *workload.Report) error {
	var st serve.DeploymentState
	for _, ev := range rep.Churn {
		st.Apply(serve.Mutation{Kind: serve.MutationFail, Nodes: ev.Failed})
		st.Apply(serve.Mutation{Kind: serve.MutationRevive, Nodes: ev.Revived})
	}
	if len(st.Failed) == 0 {
		return nil
	}
	return drv.Mutate(rep.Deployment, serve.Mutation{Kind: serve.MutationRevive, Nodes: st.Failed})
}

// bisect refines the knee between the last unsaturated and first
// saturated rung, re-detecting landmarks after each inserted rung.
func bisect(drv workload.Driver, cfg *Config, curve *CapacityCurve, opt Options) error {
	for i := 0; i < cfg.BisectIters; i++ {
		k := curve.KneeRung
		if k <= 0 {
			return nil
		}
		lo, hi := curve.Rungs[k-1].OfferedRPS, curve.Rungs[k].OfferedRPS
		mid := math.Sqrt(lo * hi) // geometric midpoint, matching the ladder
		if hi/lo < 1.05 {
			return nil // knee bracketed within 5%, good enough
		}
		r, err := runRung(drv, cfg, mid, 1, opt)
		if err != nil {
			return err
		}
		curve.Rungs = append(curve.Rungs, r)
		opt.progressf("bisect %d/%d @%.0f req/s: achieved %.0f, p99=%.1fus",
			i+1, cfg.BisectIters, mid, r.AchievedRPS, r.Latency.P99us)
		sort.Slice(curve.Rungs, func(a, b int) bool { return curve.Rungs[a].OfferedRPS < curve.Rungs[b].OfferedRPS })
		curve.detect()
	}
	return nil
}
