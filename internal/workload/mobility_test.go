package workload

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite testdata/mobile-churn.trace.golden from the current engine")

// mobileChurnScenario exercises the full hostile-geometry stack at test
// scale: an obstacle-field deployment, a Poisson fail/revive process,
// and a mobility schedule (walking sinks plus Gaussian node drift),
// all expanded from one scenario seed.
func mobileChurnScenario() *Scenario {
	return &Scenario{
		Name:           "trace-mobile",
		Deployment:     DeploymentSpec{Model: "ob", N: 260, Seed: 9, Coverage: 0.2},
		Algorithm:      "SLGF2",
		Arrival:        Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 500, Concurrency: 8},
		Traffic:        Traffic{Pattern: TrafficConvergecast, Sinks: 3},
		ChurnProcess:   &ChurnProcess{Process: "poisson", FailRateHz: 8, ReviveRateHz: 4},
		Mobility:       &Mobility{Sinks: 2, SinkSpeed: 25, DriftSigma: 3, DriftFraction: 0.02, IntervalMS: 100},
		WarmupRequests: 30,
		Seed:           17,
	}
}

// trimSummary drops a trace's final (summary) line. Request, churn, and
// move lines record scheduled intents and are deterministic per seed;
// the summary records *outcomes*, and a request that straddles a churn
// boundary may legitimately be served on either side of it run to run.
func trimSummary(raw []byte) []byte {
	raw = bytes.TrimRight(raw, "\n")
	i := bytes.LastIndexByte(raw, '\n')
	return raw[:i+1]
}

// TestMobileChurnRecordDeterminism is the mobility determinism pin:
// expanding and running the same seeded scenario twice — Poisson churn
// process, walking sinks, node drift — must record bit-identical
// request/churn/move streams, and replaying the trace twice must yield
// identical delivery counts (the replay's barriers serialize every
// request against the exact topology its trace position dictates).
// The recording, summary line aside, must also equal
// testdata/mobile-churn.trace.golden byte for byte, which pins the
// schedule across builds; regenerate it with -update-trace only for an
// intended change of what the engine schedules.
func TestMobileChurnRecordDeterminism(t *testing.T) {
	sc := mobileChurnScenario()
	_, rawA, repA := recordedRun(t, sc)
	trB, rawB, _ := recordedRun(t, sc)

	if !bytes.Equal(trimSummary(rawA), trimSummary(rawB)) {
		t.Fatal("two recordings of one seeded mobile-churn scenario diverged")
	}
	const golden = "testdata/mobile-churn.trace.golden"
	if *updateTrace {
		if err := os.WriteFile(golden, trimSummary(rawA), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(golden); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(trimSummary(rawA), want) {
		t.Fatalf("recorded schedule differs from %s; rerun with -update-trace only for an intended change", golden)
	}
	var moves, fails, revives int
	for _, ev := range trB.Events {
		switch ev.Kind {
		case traceKindMove:
			moves++
			if len(ev.Moves) == 0 {
				t.Fatal("move line carries no moves")
			}
		case traceKindFail:
			fails++
		case traceKindRevive:
			revives++
		}
	}
	if moves == 0 {
		t.Fatal("trace recorded no move lines; mobility schedule never fired")
	}
	if fails == 0 || revives == 0 {
		t.Fatalf("trace recorded %d fail / %d revive lines; Poisson process never expanded", fails, revives)
	}
	if repA.MovedNodes == 0 {
		t.Fatal("report counted no moved nodes")
	}

	replayOnce := func() *Report {
		rep, err := Replay(newInProcess(), trB, ReplayOptions{Concurrency: 8})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := replayOnce(), replayOnce()
	if a.Requests != b.Requests || a.Delivered != b.Delivered || a.Errors != b.Errors {
		t.Fatalf("replay outcomes diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Requests, a.Delivered, a.Errors, b.Requests, b.Delivered, b.Errors)
	}
	if a.MovedNodes != b.MovedNodes || a.MovedNodes == 0 {
		t.Fatalf("replays moved %d and %d nodes; want equal and nonzero", a.MovedNodes, b.MovedNodes)
	}
	if a.Requests != trB.Summary.Requests {
		t.Fatalf("replay issued %d requests; trace has %d", a.Requests, trB.Summary.Requests)
	}
}

// TestChurnProcessExpansionDeterminism pins the Poisson expansion
// itself: same seed, same event schedule, with every expanded event
// inside the measured window and the result sorted by time.
func TestChurnProcessExpansionDeterminism(t *testing.T) {
	sc := mobileChurnScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := sc.expandChurn(), sc.expandChurn()
	if len(a.Churn) == 0 {
		t.Fatal("expansion produced no churn events")
	}
	if len(a.Churn) != len(b.Churn) {
		t.Fatalf("expansions differ in length: %d vs %d", len(a.Churn), len(b.Churn))
	}
	last := 0
	for i := range a.Churn {
		if !reflect.DeepEqual(a.Churn[i], b.Churn[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Churn[i], b.Churn[i])
		}
		if a.Churn[i].AtMS < last {
			t.Fatalf("event %d at %dms is out of order", i, a.Churn[i].AtMS)
		}
		last = a.Churn[i].AtMS
		if a.Churn[i].AtMS >= sc.Arrival.DurationMS {
			t.Fatalf("event %d at %dms lands outside the %dms window", i, a.Churn[i].AtMS, sc.Arrival.DurationMS)
		}
	}
	// The original scenario must be untouched — sweep reuses it.
	if sc.ChurnProcess == nil || len(sc.Churn) != 0 {
		t.Fatal("expandChurn mutated its receiver")
	}
}

// slowMover delays every move batch by lag before passing it on.
type slowMover struct {
	Driver
	lag time.Duration
}

func (d slowMover) Mutate(deployment string, m serve.Mutation) error {
	if m.Kind == serve.MutationMove {
		time.Sleep(d.lag)
	}
	return d.Driver.Mutate(deployment, m)
}

// TestSlowMoveDropsNoFiring pins that a slow mutation never drops the
// firings queued behind it: the first move batch outlasts the whole
// run, yet the churn event and the second batch that came due meanwhile
// still fire, even though the run has ended by the time they can.
func TestSlowMoveDropsNoFiring(t *testing.T) {
	sc := &Scenario{
		Name:       "slow-move",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 500, DurationMS: 300},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 2},
		Churn:      []ChurnEvent{{AtMS: 150, FailRandom: 1}},
		Mobility:   &Mobility{Sinks: 1, IntervalMS: 100},
		Seed:       3,
	}
	rep, err := Run(slowMover{Driver: newInProcess(), lag: 250 * time.Millisecond}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Churn) != 1 || len(rep.Churn[0].Failed) != 1 {
		t.Fatalf("churn = %+v; want the 150ms event applied", rep.Churn)
	}
	if rep.MovedNodes != 2 {
		t.Fatalf("moved %d nodes; want both one-sink batches (100ms, 200ms)", rep.MovedNodes)
	}
}
