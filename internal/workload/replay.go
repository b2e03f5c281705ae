package workload

import (
	"fmt"
	"sync"
	"time"
)

// ReplayOptions tune trace replay. The zero value replays as fast as
// the driver allows, preserving event order.
type ReplayOptions struct {
	// Paced re-issues each request at its recorded arrival offset (the
	// original run's offered load, reproduced in real time) instead of
	// as fast as possible. Paced replays measure latency from the
	// recorded arrival, like the open-loop engine; unpaced replays
	// measure from dispatch.
	Paced bool
	// Concurrency is the worker pool size (default 4×GOMAXPROCS, like
	// the open-loop engine).
	Concurrency int
}

// Replay re-issues a recorded trace against a driver: the identical
// (src, dst, intended-at) request stream, with each recorded fail,
// revive and move line fired at its place in the stream. Requests
// between two mutation lines route concurrently; a mutation line is a
// barrier — the pool drains and the line fires as the engine fires its
// schedule (a fail or revive line opens a new report phase) — so every
// request routes against exactly the topology its position in the
// trace dictates. That makes replay outcomes deterministic: two
// replays of one trace yield identical delivery and error counts, and
// replaying through a fresh Recorder reproduces the trace's request
// and churn lines byte-for-byte.
//
// Determinism is per-trace, not per-original-run: in the recorded run,
// a request scheduled just before a churn event may have been *served*
// just after it, so traces with churn can legitimately differ from
// their original run by a few boundary-straddling outcomes. Churnless
// traces replay exactly; Trace.VerifySummary checks that.
func Replay(drv Driver, tr *Trace, opt ReplayOptions) (*Report, error) {
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	dep, err := drv.Deploy(tr.Header.Deploy.Name, tr.Header.Deploy)
	if err != nil {
		return nil, fmt.Errorf("workload: replay deploy: %w", err)
	}

	// The synthetic scenario carries just what reporting reads; replay
	// has no arrival process or traffic matrix of its own.
	sc := &Scenario{
		Name:             tr.Header.Scenario + ":replay",
		Deployment:       tr.Header.Deploy,
		Algorithm:        tr.Header.Algorithm,
		Arrival:          Arrival{Process: "replay"},
		Seed:             tr.Header.Seed,
		TimelineBucketMS: 250,
	}
	r := &run{drv: drv, sc: sc, dep: dep}
	if rec, ok := drv.(*Recorder); ok {
		r.rec = rec
		rec.begin(TraceHeader{Scenario: tr.Header.Scenario, Deploy: tr.Header.Deploy, Algorithm: tr.Header.Algorithm, Seed: tr.Header.Seed})
	}

	// Defensive sort into the canonical trace order: traces written by
	// Recorder already have it, but replay must not depend on
	// hand-edited files being so (and re-recording this replay sorts
	// with the same comparator, so the two can never diverge).
	events := append([]TraceEvent(nil), tr.Events...)
	sortTraceEvents(events)

	// Fail/revive lines open report phases like the engine's schedule;
	// move lines are barriers too (so replay outcomes stay
	// deterministic) but remain inside their phase, matching how the
	// engine treats continuous mobility.
	churnLines := 0
	for _, ev := range events {
		if ev.Kind != traceKindRequest && ev.Kind != traceKindMove {
			churnLines++
		}
	}
	buckets := 4096
	if opt.Paced {
		buckets = int(events[len(events)-1].At/1e6)/sc.TimelineBucketMS + 64
	}
	r.initPhases(churnLines, buckets)

	var wg sync.WaitGroup
	var queue chan arrival
	startPool := func() {
		queue = make(chan arrival, 1024)
		r.startWorkers(opt.Concurrency, queue, &wg)
	}

	r.start = time.Now()
	startPool()
	for _, ev := range events {
		if ev.Kind != traceKindRequest {
			// Barrier: drain in-flight requests, fire the mutation line
			// as the engine does, restart the pool.
			close(queue)
			wg.Wait()
			r.fire(ev.firing())
			startPool()
			continue
		}
		at := time.Duration(ev.At)
		t0 := time.Now()
		if opt.Paced {
			t0 = r.start.Add(at)
			pace(t0)
		}
		queue <- arrival{t0: t0, at: at, src: ev.Src, dst: ev.Dst}
	}
	close(queue)
	wg.Wait()
	return r.report(time.Since(r.start))
}

// VerifySummary checks a replay report against the trace's recorded
// outcome counts. Exact agreement is guaranteed for churnless traces;
// traces with churn may differ by requests that straddled a churn
// boundary in the original run (see Replay), so callers verifying a
// churned trace should compare two replays of it instead.
func (tr *Trace) VerifySummary(rep *Report) error {
	if tr.Summary == nil {
		return fmt.Errorf("workload: trace has no summary line to verify against")
	}
	s := tr.Summary
	if rep.Requests != s.Requests || rep.Delivered != s.Delivered || rep.Errors != s.Errors {
		return fmt.Errorf("workload: replay diverged from recorded run: requests %d/%d, delivered %d/%d, errors %d/%d (replayed/recorded)",
			rep.Requests, s.Requests, rep.Delivered, s.Delivered, rep.Errors, s.Errors)
	}
	return nil
}
