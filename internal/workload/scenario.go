package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"

	"github.com/straightpath/wasn/internal/topo"
)

// Arrival process names.
const (
	ArrivalClosed  = "closed"
	ArrivalPoisson = "poisson"
	ArrivalBursty  = "bursty"
)

// Traffic pattern names.
const (
	TrafficUniform      = "uniform"
	TrafficZipf         = "zipf"
	TrafficConvergecast = "convergecast"
)

// DeploymentSpec names the deployment a scenario runs against, in the
// wire vocabulary of the /deploy endpoint.
type DeploymentSpec struct {
	// Name is the registry name; empty means the server's default
	// (MODEL-N-SEED, with a coverage suffix for obstacle fields).
	Name string `json:"name,omitempty"`
	// Model is "ia", "fa", or "ob".
	Model string `json:"model"`
	// N is the node count.
	N int `json:"n"`
	// Seed is the deployment seed.
	Seed uint64 `json:"seed"`
	// Coverage is the "ob" model's obstacle lattice-coverage target in
	// [0,1); 0 means the server default. Ignored for ia/fa.
	Coverage float64 `json:"coverage,omitempty"`
}

// Arrival selects and parameterizes the arrival process.
type Arrival struct {
	// Process is one of "closed", "poisson", "bursty".
	Process string `json:"process"`
	// Requests is the closed-loop total request count.
	Requests int `json:"requests,omitempty"`
	// Concurrency is the closed-loop client count, and the worker-pool
	// size absorbing open-loop arrivals. 0 means GOMAXPROCS for closed
	// loops and 4x that for open loops (open-loop workers block on the
	// driver, so the pool must ride out latency spikes to sustain the
	// offered rate).
	Concurrency int `json:"concurrency,omitempty"`
	// RateHz is the open-loop target arrival rate (mean rate of the
	// Poisson process; the on-period rate for bursty arrivals).
	RateHz float64 `json:"rate_hz,omitempty"`
	// DurationMS is the open-loop run length.
	DurationMS int `json:"duration_ms,omitempty"`
	// OnMS/OffMS are the bursty on/off period lengths.
	OnMS  int `json:"on_ms,omitempty"`
	OffMS int `json:"off_ms,omitempty"`
}

// Traffic selects and parameterizes the traffic matrix.
type Traffic struct {
	// Pattern is one of "uniform", "zipf", "convergecast".
	Pattern string `json:"pattern"`
	// Pairs is the uniform pattern's routable-pair pool size (default
	// 256).
	Pairs int `json:"pairs,omitempty"`
	// MinDist is the uniform pattern's minimum source-destination
	// separation (default 60, the paper's multi-hop regime).
	MinDist float64 `json:"min_dist,omitempty"`
	// Hotspots is the zipf pattern's distinct destination count
	// (default 16); destination popularity is Zipf(ZipfS) over them.
	Hotspots int `json:"hotspots,omitempty"`
	// ZipfS is the zipf exponent (> 1, default 1.2).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Sinks is the convergecast sink count (default 4); every other
	// node sources packets to its nearest sink.
	Sinks int `json:"sinks,omitempty"`
}

// ChurnEvent is one timed topology mutation of the schedule.
type ChurnEvent struct {
	// AtMS is the event time, an offset from the measured run's start.
	AtMS int `json:"at_ms"`
	// Fail lists explicit nodes to kill.
	Fail []topo.NodeID `json:"fail,omitempty"`
	// FailRandom kills that many scenario-seeded random alive nodes
	// (never a convergecast sink or zipf hotspot, so losses measure
	// the routing fabric, not a dead endpoint).
	FailRandom int `json:"fail_random,omitempty"`
	// Revive lists explicit nodes to bring back.
	Revive []topo.NodeID `json:"revive,omitempty"`
	// ReviveRandom brings back that many scenario-seeded random nodes
	// from the currently failed set (fewer when the set is smaller).
	ReviveRandom int `json:"revive_random,omitempty"`
	// ReviveAll brings back every node failed so far.
	ReviveAll bool `json:"revive_all,omitempty"`
}

// ChurnProcess generates a continuous churn schedule instead of (or on
// top of) hand-written ChurnEvents: node failures arrive as a seeded
// Poisson process at FailRateHz and revivals at ReviveRateHz over the
// open-loop run. The engine expands the process into concrete
// fail_random/revive_random events at run start (seeded by the scenario
// seed, so the same scenario yields the same schedule).
type ChurnProcess struct {
	// Process names the generator; "poisson" is the only one.
	Process string `json:"process"`
	// FailRateHz is the mean node-failure arrival rate.
	FailRateHz float64 `json:"fail_rate_hz,omitempty"`
	// ReviveRateHz is the mean revival arrival rate.
	ReviveRateHz float64 `json:"revive_rate_hz,omitempty"`
}

// Mobility is the continuous position-churn schedule: a few mobile
// sinks on seeded random-waypoint walks plus Gaussian drift over a
// fraction of the field, applied as timed /move batches under live
// traffic. The walks run against an offline copy of the deployment, so
// the schedule is a pure function of the scenario (same seed, same
// batches) for both drivers.
type Mobility struct {
	// Sinks is how many nodes walk waypoint trajectories (for
	// convergecast traffic these are the traffic sinks themselves — the
	// paper's mobile-sink regime; otherwise seeded random picks).
	Sinks int `json:"sinks,omitempty"`
	// SinkSpeed is the waypoint walk speed in field units per second
	// (default 20).
	SinkSpeed float64 `json:"sink_speed,omitempty"`
	// DriftSigma is the per-interval Gaussian displacement of drifting
	// nodes in field units (default 2).
	DriftSigma float64 `json:"drift_sigma,omitempty"`
	// DriftFraction is the fraction of nodes redrawn with Gaussian
	// drift each interval (default 0.01).
	DriftFraction float64 `json:"drift_fraction,omitempty"`
	// IntervalMS is the batch period (default 250).
	IntervalMS int `json:"interval_ms,omitempty"`
}

// Scenario is one complete workload description. The zero value is not
// runnable; build one via Parse/ParseFile/Preset or fill the fields and
// Validate.
type Scenario struct {
	// Name labels the scenario in reports.
	Name       string         `json:"name"`
	Deployment DeploymentSpec `json:"deployment"`
	// Algorithm is the routing algorithm under test (serve.Algorithms).
	Algorithm string  `json:"algorithm"`
	Arrival   Arrival `json:"arrival"`
	Traffic   Traffic `json:"traffic"`
	// Churn is the mutation schedule, sorted by AtMS (Validate sorts).
	Churn []ChurnEvent `json:"churn,omitempty"`
	// ChurnProcess generates additional continuous churn; the engine
	// expands it into concrete events at run start.
	ChurnProcess *ChurnProcess `json:"churn_process,omitempty"`
	// Mobility moves nodes continuously during the run.
	Mobility *Mobility `json:"mobility,omitempty"`
	// Seed drives every workload random choice (pair picks, Zipf
	// draws, FailRandom victims) — same scenario, same traffic.
	Seed uint64 `json:"seed,omitempty"`
	// WarmupRequests are routed before measurement starts and are not
	// recorded (they pay the lazy substrate build and prime the cache).
	WarmupRequests int `json:"warmup_requests,omitempty"`
	// TimelineBucketMS is the throughput-timeline resolution (default
	// 250).
	TimelineBucketMS int `json:"timeline_bucket_ms,omitempty"`
}

// Validate checks cross-field consistency, fills defaults, and sorts
// the churn schedule. It is called by Parse and Run.
func (sc *Scenario) Validate() error {
	if _, err := topo.ParseDeployModel(sc.Deployment.Model); err != nil {
		return fmt.Errorf("workload: deployment: %w", err)
	}
	if sc.Deployment.N <= 0 {
		return fmt.Errorf("workload: deployment: node count must be positive, got %d", sc.Deployment.N)
	}
	if sc.Algorithm == "" {
		return fmt.Errorf("workload: algorithm is required")
	}

	a := &sc.Arrival
	switch a.Process {
	case ArrivalClosed:
		if a.Requests <= 0 {
			return fmt.Errorf("workload: closed-loop arrival needs requests > 0")
		}
	case ArrivalPoisson, ArrivalBursty:
		if a.RateHz <= 0 {
			return fmt.Errorf("workload: %s arrival needs rate_hz > 0", a.Process)
		}
		if a.DurationMS <= 0 {
			return fmt.Errorf("workload: %s arrival needs duration_ms > 0", a.Process)
		}
		if a.Process == ArrivalBursty && (a.OnMS <= 0 || a.OffMS <= 0) {
			return fmt.Errorf("workload: bursty arrival needs on_ms > 0 and off_ms > 0")
		}
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want %s, %s, or %s)",
			a.Process, ArrivalClosed, ArrivalPoisson, ArrivalBursty)
	}

	tr := &sc.Traffic
	switch tr.Pattern {
	case TrafficUniform:
		if tr.Pairs <= 0 {
			tr.Pairs = 256
		}
		if tr.MinDist <= 0 {
			tr.MinDist = 60
		}
	case TrafficZipf:
		if tr.Hotspots <= 0 {
			tr.Hotspots = 16
		}
		if tr.ZipfS == 0 {
			tr.ZipfS = 1.2
		}
		if tr.ZipfS <= 1 {
			return fmt.Errorf("workload: zipf_s must be > 1, got %v", tr.ZipfS)
		}
	case TrafficConvergecast:
		if tr.Sinks <= 0 {
			tr.Sinks = 4
		}
		if tr.Sinks >= sc.Deployment.N {
			return fmt.Errorf("workload: %d sinks leave no sources among %d nodes", tr.Sinks, sc.Deployment.N)
		}
	default:
		return fmt.Errorf("workload: unknown traffic pattern %q (want %s, %s, or %s)",
			tr.Pattern, TrafficUniform, TrafficZipf, TrafficConvergecast)
	}

	if cp := sc.ChurnProcess; cp != nil {
		if cp.Process != "poisson" {
			return fmt.Errorf("workload: unknown churn process %q (want poisson)", cp.Process)
		}
		if cp.FailRateHz < 0 || cp.ReviveRateHz < 0 {
			return fmt.Errorf("workload: churn process rates must be >= 0")
		}
		if cp.FailRateHz == 0 && cp.ReviveRateHz == 0 {
			return fmt.Errorf("workload: churn process does nothing (both rates zero)")
		}
		if a.Process == ArrivalClosed {
			return fmt.Errorf("workload: churn_process needs an open-loop arrival (its events span duration_ms)")
		}
	}
	if mb := sc.Mobility; mb != nil {
		if a.Process == ArrivalClosed {
			return fmt.Errorf("workload: mobility needs an open-loop arrival (its schedule spans duration_ms)")
		}
		if mb.Sinks < 0 || mb.Sinks >= sc.Deployment.N {
			return fmt.Errorf("workload: mobility sinks must be in [0,%d)", sc.Deployment.N)
		}
		if mb.DriftSigma < 0 || mb.DriftFraction < 0 || mb.DriftFraction > 1 {
			return fmt.Errorf("workload: mobility drift_sigma must be >= 0 and drift_fraction in [0,1]")
		}
		if mb.Sinks == 0 && (mb.DriftFraction == 0 || mb.DriftSigma == 0) {
			return fmt.Errorf("workload: mobility moves nothing (no sinks, no drift)")
		}
		if mb.SinkSpeed < 0 {
			return fmt.Errorf("workload: mobility sink_speed must be >= 0")
		}
		if mb.SinkSpeed == 0 {
			mb.SinkSpeed = 20
		}
		if mb.DriftFraction > 0 && mb.DriftSigma == 0 {
			mb.DriftSigma = 2
		}
		if mb.IntervalMS <= 0 {
			mb.IntervalMS = 250
		}
	}
	// An empty list means none. Keep it nil, as a JSON round trip
	// would (the lists are omitempty), so a scenario reads the same
	// after the wire.
	if len(sc.Churn) == 0 {
		sc.Churn = nil
	}
	for i := range sc.Churn {
		ev := &sc.Churn[i]
		if len(ev.Fail) == 0 {
			ev.Fail = nil
		}
		if len(ev.Revive) == 0 {
			ev.Revive = nil
		}
		if ev.AtMS < 0 {
			return fmt.Errorf("workload: churn event %d at negative time %d", i, ev.AtMS)
		}
		if ev.FailRandom < 0 || ev.ReviveRandom < 0 {
			return fmt.Errorf("workload: churn event %d: fail_random and revive_random must be >= 0", i)
		}
		if len(ev.Fail) == 0 && len(ev.Revive) == 0 && ev.FailRandom == 0 && ev.ReviveRandom == 0 && !ev.ReviveAll {
			return fmt.Errorf("workload: churn event %d does nothing", i)
		}
		for _, u := range append(append([]topo.NodeID{}, ev.Fail...), ev.Revive...) {
			if u < 0 || int(u) >= sc.Deployment.N {
				return fmt.Errorf("workload: churn event %d: node %d out of range [0,%d)", i, u, sc.Deployment.N)
			}
		}
		if a.Process != ArrivalClosed && ev.AtMS >= a.DurationMS {
			return fmt.Errorf("workload: churn event %d at %dms is past the %dms run", i, ev.AtMS, a.DurationMS)
		}
	}
	sort.SliceStable(sc.Churn, func(i, j int) bool { return sc.Churn[i].AtMS < sc.Churn[j].AtMS })

	if sc.TimelineBucketMS <= 0 {
		sc.TimelineBucketMS = 250
	}
	if sc.WarmupRequests < 0 {
		return fmt.Errorf("workload: warmup_requests must be >= 0")
	}
	return nil
}

// expandChurn returns the scenario with its ChurnProcess expanded into
// concrete fail_random/revive_random events merged into the churn
// schedule, or the scenario itself when there is nothing to expand. The
// receiver is never mutated (sweeps run one scenario template across
// many rungs). Expansion draws both Poisson streams from the scenario
// seed, so one scenario always yields one schedule — the determinism
// the trace recorder pins.
func (sc *Scenario) expandChurn() *Scenario {
	cp := sc.ChurnProcess
	if cp == nil {
		return sc
	}
	out := *sc
	out.ChurnProcess = nil
	out.Churn = append([]ChurnEvent(nil), sc.Churn...)
	rng := rand.New(rand.NewPCG(sc.Seed, 0x636875726e2d7073))
	stream := func(rateHz float64, mk func() ChurnEvent) {
		if rateHz <= 0 {
			return
		}
		for tMS := 0.0; ; {
			tMS += rng.ExpFloat64() / rateHz * 1000
			if int(tMS) >= sc.Arrival.DurationMS {
				return
			}
			ev := mk()
			ev.AtMS = int(tMS)
			out.Churn = append(out.Churn, ev)
		}
	}
	stream(cp.FailRateHz, func() ChurnEvent { return ChurnEvent{FailRandom: 1} })
	stream(cp.ReviveRateHz, func() ChurnEvent { return ChurnEvent{ReviveRandom: 1} })
	sort.SliceStable(out.Churn, func(i, j int) bool { return out.Churn[i].AtMS < out.Churn[j].AtMS })
	return &out
}

// Parse strictly decodes a scenario JSON document (unknown fields are
// rejected, like the server's request decoding) and validates it.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("workload: bad scenario JSON: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ParseFile reads and parses a scenario JSON file.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return sc, nil
}

// Presets lists the canned scenario names.
func Presets() []string {
	return []string{"steady", "hotspot", "convergecast", "churn-storm", "mobile-sink"}
}

// Preset returns a canned scenario by name, validated. The presets
// share one 500-node FA deployment and the paper's SLGF2 router:
//
//   - steady: open-loop Poisson at 2000 req/s over uniform pairs — the
//     baseline operating point.
//   - hotspot: the same arrivals with Zipf-skewed destinations — a few
//     nodes absorb most traffic, exercising the route cache.
//   - convergecast: Poisson many-to-one toward 4 sinks — the
//     paper-native sensor-field pattern.
//   - churn-storm: bursty convergecast with nodes dying every second
//     and a mass revival — the repair path under live load.
//   - mobile-sink: convergecast on an obstacle field whose sinks walk
//     waypoint trajectories while 2%% of nodes drift each half second
//     and Poisson fail/revive churn runs continuously — hostile
//     geometry plus mobility, the position-repair path under live load.
func Preset(name string) (*Scenario, error) {
	dep := DeploymentSpec{Model: "fa", N: 500, Seed: 42}
	var sc *Scenario
	switch name {
	case "steady":
		sc = &Scenario{
			Name:       "steady",
			Deployment: dep,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 10000},
			Traffic:    Traffic{Pattern: TrafficUniform},
		}
	case "hotspot":
		sc = &Scenario{
			Name:       "hotspot",
			Deployment: dep,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 10000},
			Traffic:    Traffic{Pattern: TrafficZipf},
		}
	case "convergecast":
		sc = &Scenario{
			Name:       "convergecast",
			Deployment: dep,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 10000},
			Traffic:    Traffic{Pattern: TrafficConvergecast},
		}
	case "churn-storm":
		sc = &Scenario{
			Name:       "churn-storm",
			Deployment: dep,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalBursty, RateHz: 3000, DurationMS: 10000, OnMS: 400, OffMS: 100},
			Traffic:    Traffic{Pattern: TrafficConvergecast},
			Churn: []ChurnEvent{
				{AtMS: 1000, FailRandom: 5},
				{AtMS: 2000, FailRandom: 5},
				{AtMS: 3000, FailRandom: 5},
				{AtMS: 4000, FailRandom: 5},
				{AtMS: 5000, FailRandom: 5},
				{AtMS: 6000, FailRandom: 5},
				{AtMS: 7000, FailRandom: 5},
				{AtMS: 8000, ReviveAll: true},
			},
		}
	case "mobile-sink":
		sc = &Scenario{
			Name:       "mobile-sink",
			Deployment: DeploymentSpec{Model: "ob", N: 400, Seed: 42, Coverage: 0.2},
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 1500, DurationMS: 10000},
			Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
			Mobility: &Mobility{
				Sinks: 3, SinkSpeed: 25,
				DriftSigma: 3, DriftFraction: 0.02, IntervalMS: 500,
			},
			ChurnProcess: &ChurnProcess{Process: "poisson", FailRateHz: 1.5, ReviveRateHz: 1},
		}
	default:
		return nil, fmt.Errorf("workload: unknown preset %q (want one of %v)", name, Presets())
	}
	sc.WarmupRequests = 200
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("workload: preset %s: %w", name, err)
	}
	return sc, nil
}
