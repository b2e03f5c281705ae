package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// tinyDeployment keeps substrate builds fast in CI smoke runs while
// staying dense enough (avg degree ~8.6) that SLGF2 delivers ~100%
// over an undamaged component — FA at 200 nodes is too sparse for
// delivery assertions to hold.
var tinyDeployment = DeploymentSpec{Model: "fa", N: 300, Seed: 7}

func newInProcess() *InProcess {
	return NewInProcess(serve.New(serve.Config{}))
}

// TestSmokeArrivalProcesses runs one tiny canned scenario per arrival
// process through the in-process driver — the CI gate that keeps the
// scenario plumbing from rotting.
func TestSmokeArrivalProcesses(t *testing.T) {
	scenarios := []Scenario{
		{
			Name:       "smoke-closed",
			Deployment: tinyDeployment,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalClosed, Requests: 300, Concurrency: 4},
			Traffic:    Traffic{Pattern: TrafficUniform, Pairs: 64},
		},
		{
			Name:       "smoke-poisson",
			Deployment: tinyDeployment,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 200},
			Traffic:    Traffic{Pattern: TrafficZipf, Hotspots: 8},
		},
		{
			Name:       "smoke-bursty",
			Deployment: tinyDeployment,
			Algorithm:  "SLGF2",
			Arrival:    Arrival{Process: ArrivalBursty, RateHz: 3000, DurationMS: 200, OnMS: 40, OffMS: 20},
			Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
		},
	}
	for i := range scenarios {
		sc := &scenarios[i]
		t.Run(sc.Name, func(t *testing.T) {
			rep, err := Run(newInProcess(), sc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 {
				t.Fatalf("%d request errors, first: %s", rep.Errors, rep.ErrorSample)
			}
			if rep.Requests == 0 {
				t.Fatal("no requests issued")
			}
			if sc.Arrival.Process == ArrivalClosed && rep.Requests != int64(sc.Arrival.Requests) {
				t.Fatalf("closed loop issued %d requests; want exactly %d", rep.Requests, sc.Arrival.Requests)
			}
			if rep.DeliveryRate < 0.9 {
				t.Fatalf("delivery rate %.2f over an undamaged component", rep.DeliveryRate)
			}
			if len(rep.Timeline) == 0 {
				t.Fatal("empty throughput timeline")
			}
			if rep.Latency.P50us <= 0 || rep.Latency.P999us < rep.Latency.P50us {
				t.Fatalf("implausible latency summary: %+v", rep.Latency)
			}
			if rep.Server == nil || rep.Server.Routes == 0 {
				t.Fatalf("missing server stats: %+v", rep.Server)
			}
			// Reports must round-trip as JSON (-load -out writes them).
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatal(err)
			}
			if back.Requests != rep.Requests {
				t.Fatalf("JSON round-trip lost requests: %d != %d", back.Requests, rep.Requests)
			}
			if rep.Summary() == "" {
				t.Fatal("empty summary")
			}
		})
	}
}

// TestChurnUnderLoad drives an open-loop convergecast while the churn
// schedule fails and revives nodes mid-run; under -race this is the
// subsystem's central soundness storm. The schedule must fire fully,
// phases must split at each event, and the post-revival phase must
// recover delivery.
func TestChurnUnderLoad(t *testing.T) {
	sc := &Scenario{
		Name:       "churn-under-load",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 3000, DurationMS: 700, Concurrency: 8},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
		Churn: []ChurnEvent{
			{AtMS: 150, FailRandom: 4},
			{AtMS: 300, FailRandom: 4},
			{AtMS: 450, ReviveAll: true},
		},
		WarmupRequests: 50,
	}
	rep, err := Run(newInProcess(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors, first: %s", rep.Errors, rep.ErrorSample)
	}
	if len(rep.Churn) != 3 {
		t.Fatalf("churn fired %d/3 events: %+v", len(rep.Churn), rep.Churn)
	}
	for _, ev := range rep.Churn {
		if ev.Err != "" {
			t.Fatalf("churn event at %dms failed: %s", ev.AtMS, ev.Err)
		}
	}
	if got := len(rep.Churn[0].Failed); got != 4 {
		t.Fatalf("first event failed %d nodes; want 4", got)
	}
	if got := len(rep.Churn[2].Revived); got != 8 {
		t.Fatalf("revive_all revived %d nodes; want 8", got)
	}
	if len(rep.Phases) != 4 {
		t.Fatalf("got %d phases; want 4: %+v", len(rep.Phases), rep.Phases)
	}
	for i, ph := range rep.Phases {
		if ph.Requests == 0 {
			t.Fatalf("phase %d saw no requests", i)
		}
	}
	// The server must have repaired incrementally once per event.
	if rep.Server == nil || len(rep.Server.PerDeployment) != 1 {
		t.Fatalf("missing per-deployment stats: %+v", rep.Server)
	}
	ds := rep.Server.PerDeployment[0]
	if ds.Repairs != 3 || ds.FailedNodes != 0 {
		t.Fatalf("deployment stats = %+v; want 3 repairs, everything revived", ds)
	}
	// Post-revival delivery matches the pristine phase 0 closely.
	first, last := rep.Phases[0], rep.Phases[3]
	if last.DeliveryRate < first.DeliveryRate-0.05 {
		t.Fatalf("post-revival delivery %.3f well below pristine %.3f", last.DeliveryRate, first.DeliveryRate)
	}
}

// TestConvergecastRoutesToSinks pins the traffic matrix: every
// convergecast draw must target a sink, never source from one.
func TestConvergecastRoutesToSinks(t *testing.T) {
	sc := &Scenario{
		Name:       "cc",
		Deployment: tinyDeployment,
		Algorithm:  "GF",
		Arrival:    Arrival{Process: ArrivalClosed, Requests: 1},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := buildTraffic(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.sinks) != 3 {
		t.Fatalf("%d sinks; want 3", len(tr.sinks))
	}
	sink := make(map[topo.NodeID]bool)
	for _, s := range tr.sinks {
		sink[s] = true
	}
	pick := tr.picker(1, func(topo.NodeID) bool { return true })
	for i := 0; i < 500; i++ {
		src, dst := pick()
		if !sink[dst] {
			t.Fatalf("draw %d: dst %d is not a sink", i, dst)
		}
		if sink[src] {
			t.Fatalf("draw %d: src %d is a sink", i, src)
		}
	}
}

// TestPickerSkipsDeadSources pins the liveness contract: dead sources
// are rerolled, dead destinations are kept (their loss is the
// measurement).
func TestPickerSkipsDeadSources(t *testing.T) {
	sc := &Scenario{
		Name:       "dead-src",
		Deployment: tinyDeployment,
		Algorithm:  "GF",
		Arrival:    Arrival{Process: ArrivalClosed, Requests: 1},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 2},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := buildTraffic(sc)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[topo.NodeID]bool{}
	for _, u := range tr.members {
		if !tr.protected[u] {
			dead[u] = true
			if len(dead) == 50 {
				break
			}
		}
	}
	pick := tr.picker(2, func(u topo.NodeID) bool { return !dead[u] })
	for i := 0; i < 500; i++ {
		src, _ := pick()
		if dead[src] {
			t.Fatalf("draw %d picked dead source %d", i, src)
		}
	}
}

// TestTrafficDeterminism pins that the same scenario seed reproduces
// the same draws — reports are comparable across runs and drivers.
func TestTrafficDeterminism(t *testing.T) {
	sc, err := Parse([]byte(validScenarioJSON()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildTraffic(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildTraffic(sc)
	if err != nil {
		t.Fatal(err)
	}
	alive := func(topo.NodeID) bool { return true }
	pa, pb := a.picker(9, alive), b.picker(9, alive)
	for i := 0; i < 200; i++ {
		as, ad := pa()
		bs, bd := pb()
		if as != bs || ad != bd {
			t.Fatalf("draw %d diverged: (%d,%d) vs (%d,%d)", i, as, ad, bs, bd)
		}
	}
}

// TestRunWithProgress pins the live-progress stream: a churny open-loop
// run must emit ticker and churn lines to the Progress writer.
func TestRunWithProgress(t *testing.T) {
	sc := &Scenario{
		Name:       "progress",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 300},
		Traffic:    Traffic{Pattern: TrafficUniform, Pairs: 64},
		Churn:      []ChurnEvent{{AtMS: 100, FailRandom: 2}, {AtMS: 200, ReviveAll: true}},
	}
	var prog bytes.Buffer
	rep, err := RunWith(newInProcess(), sc, Options{Progress: &prog, ProgressEveryMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors, first: %s", rep.Errors, rep.ErrorSample)
	}
	out := prog.String()
	if !strings.Contains(out, "[workload]") || !strings.Contains(out, "req=") {
		t.Fatalf("no ticker progress lines:\n%s", out)
	}
	if !strings.Contains(out, "churn @100ms") || !strings.Contains(out, "churn @200ms") {
		t.Fatalf("churn events not narrated:\n%s", out)
	}
}
