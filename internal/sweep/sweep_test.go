package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/workload"
)

// curveOf builds a curve from (offered, achieved, p99us) triples and
// runs detection — the synthetic harness for the landmark logic.
func curveOf(tol, cliff float64, rungs ...[3]float64) *CapacityCurve {
	c := &CapacityCurve{KneeTolerance: tol, CliffFactor: cliff, KneeRung: -1, CliffRung: -1}
	for _, r := range rungs {
		c.Rungs = append(c.Rungs, Rung{
			OfferedRPS:   r[0],
			AchievedRPS:  r[1],
			DeliveryRate: 1,
			Latency:      workload.Latency{P99us: r[2]},
		})
	}
	c.detect()
	return c
}

func TestDetectKneeAndCliff(t *testing.T) {
	c := curveOf(0.1, 3,
		[3]float64{1000, 1000, 10},
		[3]float64{2000, 1990, 12},
		[3]float64{4000, 3995, 14},
		[3]float64{8000, 6800, 45}, // achieved 15% below offered, p99 4.5x floor
		[3]float64{16000, 7000, 300},
	)
	if c.KneeRung != 3 || c.KneeRPS != 8000 {
		t.Fatalf("knee at rung %d (%.0f rps); want rung 3 at 8000", c.KneeRung, c.KneeRPS)
	}
	if c.CliffRung != 3 || c.CliffRPS != 8000 {
		t.Fatalf("cliff at rung %d (%.0f rps); want rung 3 at 8000", c.CliffRung, c.CliffRPS)
	}
	if !c.Rungs[3].Saturated || c.Rungs[2].Saturated {
		t.Fatalf("saturation flags wrong: %+v", c.Rungs)
	}
}

func TestDetectNoLandmarks(t *testing.T) {
	c := curveOf(0.1, 3,
		[3]float64{1000, 1000, 10},
		[3]float64{2000, 1995, 11},
		[3]float64{4000, 3990, 13},
	)
	if c.KneeRung != -1 || c.CliffRung != -1 {
		t.Fatalf("flat curve detected knee %d / cliff %d; want none", c.KneeRung, c.CliffRung)
	}
}

// TestDetectCliffUsesFloor pins that the cliff reference is the
// smallest earlier p99, not the (possibly noisy) first rung.
func TestDetectCliffUsesFloor(t *testing.T) {
	c := curveOf(0.1, 3,
		[3]float64{1000, 1000, 50}, // noisy cold rung
		[3]float64{2000, 2000, 10},
		[3]float64{4000, 4000, 29}, // 2.9x the 10us floor: no cliff
		[3]float64{8000, 8000, 31}, // 3.1x: cliff
	)
	if c.CliffRung != 3 {
		t.Fatalf("cliff at rung %d; want 3 (relative to the 10us floor)", c.CliffRung)
	}
}

func TestLadderGeometric(t *testing.T) {
	rates := ladder(500, 8000, 5)
	if len(rates) != 5 || rates[0] != 500 || rates[4] != 8000 {
		t.Fatalf("ladder endpoints wrong: %v", rates)
	}
	for i := 1; i < len(rates); i++ {
		ratio := rates[i] / rates[i-1]
		if math.Abs(ratio-2) > 1e-9 {
			t.Fatalf("ladder not geometric: %v", rates)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	base := func() *Config {
		return &Config{
			Name: "t",
			Scenario: workload.Scenario{
				Name:       "t",
				Deployment: workload.DeploymentSpec{Model: "fa", N: 100, Seed: 1},
				Algorithm:  "SLGF2",
				Arrival:    workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 100, DurationMS: 100},
				Traffic:    workload.Traffic{Pattern: workload.TrafficUniform},
			},
			MinRateHz: 100, MaxRateHz: 1000, Steps: 3,
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base()
	bad.Scenario.Arrival = workload.Arrival{Process: workload.ArrivalClosed, Requests: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("closed-loop scenario accepted for a rate sweep")
	}
	bad = base()
	bad.Steps = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("1-step ladder accepted")
	}
	bad = base()
	bad.MaxRateHz = 50
	if err := bad.Validate(); err == nil {
		t.Fatal("max < min accepted")
	}
	bad = base()
	bad.Mode = "exhaustive"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// Defaults fill in.
	c := base()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Mode != ModeGeometric || c.KneeTolerance != 0.1 || c.CliffFactor != 3 || c.BisectIters != 3 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}

// TestRunTinySweep drives a real 3-rung ladder in-process over a tiny
// deployment: every rung must populate, stay sorted, and the artifact
// must round-trip as JSON.
func TestRunTinySweep(t *testing.T) {
	cfg := &Config{
		Name: "tiny",
		Scenario: workload.Scenario{
			Name:           "tiny",
			Deployment:     workload.DeploymentSpec{Model: "fa", N: 300, Seed: 7},
			Algorithm:      "SLGF2",
			Arrival:        workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 500, DurationMS: 150},
			Traffic:        workload.Traffic{Pattern: workload.TrafficUniform, Pairs: 64},
			WarmupRequests: 100,
		},
		MinRateHz: 500, MaxRateHz: 2000, Steps: 3,
	}
	var prog bytes.Buffer
	drv := workload.NewInProcess(serve.New(serve.Config{}))
	curve, err := Run(drv, cfg, Options{ProgressWriter: &prog, ProgressEveryMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Rungs) != 3 {
		t.Fatalf("got %d rungs; want 3", len(curve.Rungs))
	}
	if n := strings.Count(prog.String(), "[sweep] rung"); n != 3 {
		t.Fatalf("got %d [sweep] rung progress lines; want 3:\n%s", n, prog.String())
	}
	if !strings.Contains(prog.String(), "[workload]") {
		t.Fatalf("no in-run [workload] ticker lines streamed through:\n%s", prog.String())
	}
	for i, r := range curve.Rungs {
		if i > 0 && r.OfferedRPS <= curve.Rungs[i-1].OfferedRPS {
			t.Fatalf("rungs not sorted by offered rate: %+v", curve.Rungs)
		}
		if r.Requests == 0 || r.DeliveryRate < 0.9 || r.Latency.P99us <= 0 {
			t.Fatalf("rung %d implausible: %+v", i, r)
		}
	}
	// Later rungs reuse the warm cache: the share must not reset.
	if curve.Rungs[1].CachedShare < 0.3 {
		t.Fatalf("rung 1 cached share %.2f; cache should stay warm across rungs", curve.Rungs[1].CachedShare)
	}
	if curve.Summary() == "" {
		t.Fatal("empty summary")
	}
	var buf bytes.Buffer
	if err := curve.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCurve(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rungs) != len(curve.Rungs) || back.KneeRung != curve.KneeRung {
		t.Fatalf("JSON round-trip diverged: %+v vs %+v", back, curve)
	}
}

// TestRunSweepRestoresChurn pins that a rung's churn damage is revived
// before the next rung: the final server stats must show no dead nodes.
func TestRunSweepRestoresChurn(t *testing.T) {
	cfg := &Config{
		Name: "churny",
		Scenario: workload.Scenario{
			Name:       "churny",
			Deployment: workload.DeploymentSpec{Model: "fa", N: 300, Seed: 7},
			Algorithm:  "SLGF2",
			Arrival:    workload.Arrival{Process: workload.ArrivalPoisson, RateHz: 1000, DurationMS: 200},
			Traffic:    workload.Traffic{Pattern: workload.TrafficConvergecast, Sinks: 3},
			Churn:      []workload.ChurnEvent{{AtMS: 80, FailRandom: 3}},
		},
		MinRateHz: 1000, MaxRateHz: 2000, Steps: 2,
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
	for _, d := range st.PerDeployment {
		if d.FailedNodes != 0 {
			t.Fatalf("deployment %s still has %d dead nodes after the sweep", d.Name, d.FailedNodes)
		}
	}
}

func TestCompare(t *testing.T) {
	baseline := curveOf(0.1, 3,
		[3]float64{1000, 1000, 10},
		[3]float64{2000, 2000, 12},
		[3]float64{4000, 3500, 40}, // knee
	)
	baseline.Rungs[2].DeliveryRate = 0.98

	t.Run("pass", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 11},
			[3]float64{2000, 2000, 13},
			[3]float64{4000, 3600, 44},
		)
		cur.Rungs[2].DeliveryRate = 0.97
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) != 0 {
			t.Fatalf("clean curve flagged: %v", regs)
		}
	})
	t.Run("p99 regression", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 3500, 80}, // 2x the baseline p99 at the knee
		)
		cur.Rungs[2].DeliveryRate = 0.98
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) == 0 {
			t.Fatal("2x p99 at the knee rung not flagged")
		}
	})
	t.Run("delivery regression", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 3500, 40},
		)
		cur.Rungs[2].DeliveryRate = 0.5
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) == 0 {
			t.Fatal("halved delivery at the knee rung not flagged")
		}
	})
	t.Run("knee shrink", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 1500, 12}, // knee two rungs early
			[3]float64{4000, 1800, 40},
		)
		cur.Rungs[2].DeliveryRate = 0.98
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) == 0 {
			t.Fatal("knee moving from 4000 to 2000 req/s not flagged")
		}
	})
	t.Run("normalized p99 cancels machine speed", func(t *testing.T) {
		// Every latency 3x worse — a slower machine, same curve shape.
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 30},
			[3]float64{2000, 2000, 36},
			[3]float64{4000, 3500, 120},
		)
		cur.Rungs[2].DeliveryRate = 0.98
		if regs := Compare(cur, baseline, Tolerance{Normalize: true}); len(regs) != 0 {
			t.Fatalf("uniformly slower machine flagged under Normalize: %v", regs)
		}
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) == 0 {
			t.Fatal("sanity: absolute comparison should flag the 3x machine")
		}
	})
	t.Run("ladder mismatch", func(t *testing.T) {
		cur := curveOf(0.1, 3, [3]float64{700, 700, 10})
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) == 0 {
			t.Fatal("missing anchor rung not flagged")
		}
	})
	t.Run("new knee under knee-less baseline", func(t *testing.T) {
		// The CI baseline never saturates (KneeRung -1); a curve that
		// now saturates anywhere in the shared ladder must be flagged
		// even though the knee-shrink band has nothing to anchor on.
		flat := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 4000, 14},
		)
		collapsed := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 3000, 14}, // saturates; delivery of processed stays 1.0
		)
		regs := Compare(collapsed, flat, Tolerance{})
		if len(regs) == 0 {
			t.Fatal("capacity collapse with clean delivery not flagged against a knee-less baseline")
		}
		sheds := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 4000, 14},
		)
		sheds.Rungs[2].Dropped = 500
		if regs := Compare(sheds, flat, Tolerance{}); len(regs) == 0 {
			t.Fatal("shedding at the anchor rung not flagged")
		}
	})
	t.Run("nearest rung matches bisected anchors", func(t *testing.T) {
		// A bisect-mode comparison curve's refined rungs land near, not
		// on, the baseline's rates; within 10% the nearest rung anchors.
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{3850, 3400, 42},
		)
		cur.Rungs[2].DeliveryRate = 0.98
		if regs := Compare(cur, baseline, Tolerance{}); len(regs) != 0 {
			t.Fatalf("3850 rung should anchor against the 4000 baseline knee: %v", regs)
		}
	})
}

func TestImprovements(t *testing.T) {
	baseline := curveOf(0.1, 3,
		[3]float64{1000, 1000, 10},
		[3]float64{2000, 2000, 12},
		[3]float64{4000, 3500, 40}, // knee
	)

	t.Run("same curve reports nothing", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 3500, 42},
		)
		if imps := Improvements(cur, baseline, Tolerance{}); len(imps) != 0 {
			t.Fatalf("unchanged curve reported improvements: %v", imps)
		}
	})
	t.Run("knee gone", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 4000, 14}, // absorbs the whole ladder
		)
		if imps := Improvements(cur, baseline, Tolerance{}); len(imps) == 0 {
			t.Fatal("vanished knee not reported")
		}
	})
	t.Run("knee up beyond band", func(t *testing.T) {
		withKnee := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 1700, 12}, // knee at 2000
			[3]float64{4000, 2000, 40},
		)
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 12},
			[3]float64{4000, 3500, 40}, // knee at 4000: 2x up
		)
		if imps := Improvements(cur, withKnee, Tolerance{}); len(imps) == 0 {
			t.Fatal("knee doubling not reported")
		}
	})
	t.Run("p99 drop at the anchor", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 2000, 11},
			[3]float64{4000, 3500, 15}, // well under 40*(1-0.25)
		)
		if imps := Improvements(cur, baseline, Tolerance{}); len(imps) == 0 {
			t.Fatal("anchor p99 drop not reported")
		}
	})
	t.Run("improvements never flag regressions", func(t *testing.T) {
		cur := curveOf(0.1, 3,
			[3]float64{1000, 1000, 10},
			[3]float64{2000, 1500, 80}, // strictly worse everywhere
			[3]float64{4000, 1600, 300},
		)
		if imps := Improvements(cur, baseline, Tolerance{}); len(imps) != 0 {
			t.Fatalf("worse curve reported improvements: %v", imps)
		}
	})
}

// TestCompareTolerancesJSON pins that the Tolerance wire form decodes
// (the perf-gate reads it from flags, but keep the struct stable).
func TestCompareTolerancesJSON(t *testing.T) {
	var tol Tolerance
	if err := json.Unmarshal([]byte(`{"p99_frac":0.5,"normalize":true}`), &tol); err != nil {
		t.Fatal(err)
	}
	if tol.P99Frac != 0.5 || !tol.Normalize {
		t.Fatalf("tolerance decoded wrong: %+v", tol)
	}
}
