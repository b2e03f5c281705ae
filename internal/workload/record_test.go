package workload

import (
	"bytes"
	"strings"
	"testing"
)

// recordedRun executes one seeded scenario through a fresh Recorder
// and returns the trace bytes plus the run report.
func recordedRun(t *testing.T, sc *Scenario) (*Trace, []byte, *Report) {
	t.Helper()
	rec := NewRecorder(newInProcess())
	rep, err := Run(rec, sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes(), rep
}

// churnyScenario is the record/replay workhorse: a seeded open-loop
// convergecast with fail and revive events, run with enough workers
// that the trace writer sees real concurrency (the -race run of this
// file is the satellite soundness check for the recorder).
func churnyScenario() *Scenario {
	return &Scenario{
		Name:       "trace-churn",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 3000, DurationMS: 400, Concurrency: 8},
		Traffic:    Traffic{Pattern: TrafficConvergecast, Sinks: 3},
		Churn: []ChurnEvent{
			{AtMS: 120, FailRandom: 4},
			{AtMS: 260, ReviveAll: true},
		},
		WarmupRequests: 50,
		Seed:           11,
	}
}

// TestRecordCapturesRun pins the trace format: header from the
// scenario, time-sorted request lines matching the report's request
// count, churn lines at their scheduled offsets, and a summary
// agreeing with the report.
func TestRecordCapturesRun(t *testing.T) {
	sc := churnyScenario()
	tr, raw, rep := recordedRun(t, sc)

	if tr.Header.Scenario != sc.Name || tr.Header.Algorithm != sc.Algorithm ||
		tr.Header.Deploy != sc.Deployment || tr.Header.Seed != sc.Seed {
		t.Fatalf("header %+v does not match scenario", tr.Header)
	}
	var reqs, fails, revives int64
	lastAt := int64(-1)
	for i, ev := range tr.Events {
		if ev.At < lastAt {
			t.Fatalf("event %d at %d is out of order (previous %d)", i, ev.At, lastAt)
		}
		lastAt = ev.At
		switch ev.Kind {
		case traceKindRequest:
			reqs++
		case traceKindFail:
			fails++
			if ev.At != int64(120e6) {
				t.Fatalf("fail line at %dns; want the scheduled 120ms", ev.At)
			}
			if len(ev.Nodes) != 4 {
				t.Fatalf("fail line lists %d nodes; want 4", len(ev.Nodes))
			}
		case traceKindRevive:
			revives++
		}
	}
	if reqs != rep.Requests {
		t.Fatalf("trace has %d request lines; report says %d", reqs, rep.Requests)
	}
	if fails != 1 || revives != 1 {
		t.Fatalf("trace has %d fail / %d revive lines; want 1/1", fails, revives)
	}
	if tr.Summary == nil {
		t.Fatal("trace has no summary line")
	}
	if tr.Summary.Requests != rep.Requests || tr.Summary.Delivered != rep.Delivered || tr.Summary.Errors != rep.Errors {
		t.Fatalf("summary %+v disagrees with report (%d req, %d delivered, %d errors)",
			tr.Summary, rep.Requests, rep.Delivered, rep.Errors)
	}
	// Warmup requests must not leak into the trace: line count is
	// header + events + summary exactly.
	if lines := bytes.Count(bytes.TrimSpace(raw), []byte("\n")) + 1; lines != len(tr.Events)+2 {
		t.Fatalf("trace has %d lines; want %d events + header + summary", lines, len(tr.Events))
	}
}

// TestReplayDeterminism is the acceptance pin: replaying one recorded
// trace twice yields bit-identical re-recorded (src,dst,at) streams
// and identical delivery/error counts — a regression reproduced from a
// trace behaves identically run to run, even with churn mid-stream.
func TestReplayDeterminism(t *testing.T) {
	tr, _, _ := recordedRun(t, churnyScenario())

	type replayOut struct {
		trace []byte
		rep   *Report
	}
	replayOnce := func() replayOut {
		rec := NewRecorder(newInProcess())
		rep, err := Replay(rec, tr, ReplayOptions{Concurrency: 8})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return replayOut{trace: buf.Bytes(), rep: rep}
	}
	a, b := replayOnce(), replayOnce()

	if !bytes.Equal(a.trace, b.trace) {
		t.Fatal("two replays re-recorded different traces")
	}
	if a.rep.Requests != b.rep.Requests || a.rep.Delivered != b.rep.Delivered || a.rep.Errors != b.rep.Errors {
		t.Fatalf("replay outcomes diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.rep.Requests, a.rep.Delivered, a.rep.Errors,
			b.rep.Requests, b.rep.Delivered, b.rep.Errors)
	}
	if a.rep.Requests != tr.Summary.Requests {
		t.Fatalf("replay issued %d requests; trace has %d", a.rep.Requests, tr.Summary.Requests)
	}
	// The replayed request/churn lines must equal the original trace's
	// — only the summary may differ (churn-boundary straddlers).
	reTr, err := ReadTrace(bytes.NewReader(a.trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(reTr.Events) != len(tr.Events) {
		t.Fatalf("replay recorded %d events; original trace has %d", len(reTr.Events), len(tr.Events))
	}
	for i := range tr.Events {
		o, r := tr.Events[i], reTr.Events[i]
		if o.Kind != r.Kind || o.At != r.At || o.Src != r.Src || o.Dst != r.Dst || len(o.Nodes) != len(r.Nodes) {
			t.Fatalf("event %d diverged: recorded %+v, replayed %+v", i, o, r)
		}
	}
	// Phases must have split at both churn lines.
	if len(a.rep.Phases) != 3 {
		t.Fatalf("replay report has %d phases; want 3", len(a.rep.Phases))
	}
}

// TestChurnlessReplayMatchesSummary pins the exact-reproduction
// guarantee: without churn there are no boundary races, so a replay's
// outcome counts must equal the recorded run's summary bit-for-bit.
func TestChurnlessReplayMatchesSummary(t *testing.T) {
	sc := &Scenario{
		Name:       "trace-closed",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalClosed, Requests: 400, Concurrency: 6},
		Traffic:    Traffic{Pattern: TrafficUniform, Pairs: 64},
		Seed:       5,
	}
	tr, _, _ := recordedRun(t, sc)
	if len(tr.Events) != 400 {
		t.Fatalf("trace has %d events; want 400 requests", len(tr.Events))
	}
	rep, err := Replay(newInProcess(), tr, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifySummary(rep); err != nil {
		t.Fatal(err)
	}
}

// TestReplayPaced smoke-tests the paced mode: the replayed run must
// take roughly as long as the recorded span and still verify.
func TestReplayPaced(t *testing.T) {
	sc := &Scenario{
		Name:       "trace-paced",
		Deployment: tinyDeployment,
		Algorithm:  "SLGF2",
		Arrival:    Arrival{Process: ArrivalPoisson, RateHz: 1500, DurationMS: 300},
		Traffic:    Traffic{Pattern: TrafficUniform, Pairs: 64},
		Seed:       6,
	}
	tr, _, _ := recordedRun(t, sc)
	rep, err := Replay(newInProcess(), tr, ReplayOptions{Paced: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.VerifySummary(rep); err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedMS < 200 {
		t.Fatalf("paced replay of a 300ms trace finished in %.0fms", rep.ElapsedMS)
	}
}

// garbageTraces are documents ReadTrace must reject, by what is wrong
// with them.
var garbageTraces = map[string]string{
	"no header":     `{"t":"r","at":1,"src":0,"dst":1}`,
	"unknown kind":  `{"t":"h","v":1,"scenario":"x","deployment":{"model":"fa","n":10,"seed":1},"algorithm":"GF"}` + "\n" + `{"t":"x","at":1}`,
	"wrong version": `{"t":"h","v":99,"scenario":"x","deployment":{"model":"fa","n":10,"seed":1},"algorithm":"GF"}`,
	"not json":      `nope`,
	"no requests":   `{"t":"h","v":1,"scenario":"x","deployment":{"model":"fa","n":10,"seed":1},"algorithm":"GF"}`,
}

// TestReadTraceRejectsGarbage pins the parser's error paths.
func TestReadTraceRejectsGarbage(t *testing.T) {
	for name, doc := range garbageTraces {
		if _, err := ReadTrace(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: ReadTrace accepted %q", name, doc)
		}
	}
}
