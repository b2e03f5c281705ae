package workload

import (
	"testing"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
)

// TestChurnEventsJournaled is the event journal's acceptance gate: a
// churny obstacle-field run must embed in its report one fail or revive
// journal event per applied churn event, in order, stamped inside the
// measured window and carrying the repair's duration.
func TestChurnEventsJournaled(t *testing.T) {
	drv := NewInProcess(serve.New(serve.Config{}))
	sc := &Scenario{
		Name:       "flight-journal",
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
	end := rep.StartUnixMs + int64(rep.ElapsedMS) + 1
	for k, ev := range mutations {
		want := obs.EventFail
		if len(rep.Churn[k].Revived) > 0 {
			want = obs.EventRevive
		}
		if ev.Kind != want {
			t.Fatalf("journal mutation %d is a %s for churn %+v; want %s", k, ev.Kind, rep.Churn[k], want)
		}
		if ev.UnixMS < rep.StartUnixMs || ev.UnixMS > end {
			t.Fatalf("journal event %+v outside the measured window [%d, %d]", ev, rep.StartUnixMs, end)
		}
		if ev.DurationUS <= 0 {
			t.Fatalf("journal event lacks a duration: %+v", ev)
		}
	}
}
