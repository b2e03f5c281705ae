package workload

import (
	"testing"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
)

// TestChurnEventsAlignWithTimeline is the flight recorder's acceptance
// gate: a churny obstacle-field run with the sampler on must embed a
// timeline in the report, and every applied churn event must fall
// inside a sampled window whose series reflect it — the repair and
// churn rates over that window are nonzero. This is what makes the
// /debug/dash overlay trustworthy: markers land on curves that actually
// moved.
func TestChurnEventsAlignWithTimeline(t *testing.T) {
	const everyMS = 100
	drv := NewInProcess(serve.New(serve.Config{SampleEveryMS: everyMS}))
	sc := &Scenario{
		Name:       "flight-align",
		Deployment: DeploymentSpec{Model: "ob", N: 400, Seed: 7},
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 2000, DurationMS: 1200, Concurrency: 8},
		Traffic:    Traffic{Pattern: TrafficUniform},
		Churn: []ChurnEvent{
			{AtMS: 300, FailRandom: 4},
			{AtMS: 600, FailRandom: 4},
			{AtMS: 900, ReviveAll: true},
		},
		WarmupRequests: 50,
	}
	rep, err := Run(drv, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Churn) != 3 {
		t.Fatalf("churn fired %d/3 events: %+v", len(rep.Churn), rep.Churn)
	}
	for _, ev := range rep.Churn {
		if ev.Err != "" {
			t.Fatalf("churn at %dms failed to apply: %s", ev.AtMS, ev.Err)
		}
	}
	if rep.StartUnixMs == 0 {
		t.Fatal("report lacks start_unix_ms")
	}
	win := rep.SampledTimeline
	if win == nil || len(win.TUnixMS) < 3 {
		t.Fatalf("report sampled timeline = %+v; want several samples", win)
	}
	if win.EveryMS != everyMS {
		t.Fatalf("timeline every_ms = %d; want %d", win.EveryMS, everyMS)
	}

	series := func(name string) []float64 {
		ts := win.Find(name)
		if ts == nil {
			t.Fatalf("timeline lacks series %q", name)
		}
		if len(ts.Points) != len(win.TUnixMS) {
			t.Fatalf("series %q has %d points for %d timestamps", name, len(ts.Points), len(win.TUnixMS))
		}
		return ts.Points
	}
	repairs := series("repairs_per_s")
	failedRate := series("failed_nodes_per_s")
	revivedRate := series("revived_nodes_per_s")

	// Each churn event here applies exactly one mutation, so the
	// journal's fail/revive events pair with rep.Churn in order.
	var mutations []obs.Event
	for _, ev := range rep.Journal {
		if ev.Kind == obs.EventFail || ev.Kind == obs.EventRevive {
			mutations = append(mutations, ev)
		}
	}
	if len(mutations) != len(rep.Churn) {
		t.Fatalf("journal has %d fail/revive events for %d churn events: %+v", len(mutations), len(rep.Churn), rep.Journal)
	}

	// reflected reports whether the rate series is positive in the
	// sampled window that closed at index i or the next one. The sampler
	// stamps a sample when its scrape finishes, so sample i — the first
	// stamped at or after the mutation completed — may have read the
	// counters just before the repair bumped them; sample i+1's scrape
	// began after that stamp and must see them.
	reflected := func(rate []float64, i int) bool {
		return rate[i] > 0 || (i+1 < len(rate) && rate[i+1] > 0)
	}

	for k, ev := range rep.Churn {
		// Anchor on the time the mutation completed — the journal's
		// timestamp plus the repair's duration — not on when the engine
		// got to record it.
		done := mutations[k].UnixMS + mutations[k].DurationUS/1000
		// The event must fall inside the sampled window: some sample
		// closed soon after it (the engine's end-of-run flush guarantees
		// one even for events near the end).
		i := -1
		for j, ts := range win.TUnixMS {
			if ts >= done {
				i = j
				break
			}
		}
		if i < 0 {
			t.Fatalf("churn at +%.0fms (completed t=%d) is after the last sample %d",
				ev.AppliedMS, done, win.TUnixMS[len(win.TUnixMS)-1])
		}
		if slack := win.TUnixMS[i] - done; slack > 4*everyMS {
			t.Fatalf("churn at +%.0fms waited %dms for a sample; want <= %dms",
				ev.AppliedMS, slack, 4*everyMS)
		}
		if !reflected(repairs, i) {
			t.Fatalf("churn at +%.0fms: repairs_per_s flat around sample %d: %v",
				ev.AppliedMS, i, repairs)
		}
		if len(ev.Failed) > 0 && !reflected(failedRate, i) {
			t.Fatalf("churn at +%.0fms failed %d nodes but failed_nodes_per_s flat around sample %d: %v",
				ev.AppliedMS, len(ev.Failed), i, failedRate)
		}
		if len(ev.Revived) > 0 && !reflected(revivedRate, i) {
			t.Fatalf("churn at +%.0fms revived %d nodes but revived_nodes_per_s flat around sample %d: %v",
				ev.AppliedMS, len(ev.Revived), i, revivedRate)
		}
	}

	// The journal must carry one event per applied change, inside the
	// measured window and tagged with repair spans.
	var fails, revives int
	for _, ev := range rep.Journal {
		switch ev.Kind {
		case obs.EventFail:
			fails++
		case obs.EventRevive:
			revives++
		}
		if ev.Kind == obs.EventFail || ev.Kind == obs.EventRevive {
			if ev.UnixMS < rep.StartUnixMs {
				t.Fatalf("journal event %+v predates the run start %d", ev, rep.StartUnixMs)
			}
			if ev.DurationUS <= 0 {
				t.Fatalf("journal event lacks a duration: %+v", ev)
			}
		}
	}
	if fails != 2 || revives != 1 {
		t.Fatalf("journal has %d fail / %d revive events; want 2/1 (%+v)", fails, revives, rep.Journal)
	}
}
