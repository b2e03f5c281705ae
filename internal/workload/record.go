package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// Trace line kinds. A trace is JSONL: one header line, then request and
// churn lines sorted by time offset, then one summary line.
const (
	traceKindHeader  = "h"
	traceKindRequest = "r"
	traceKindFail    = "f"
	traceKindRevive  = "v"
	traceKindMove    = "m"
	traceKindSummary = "s"
)

// traceKinds names the trace line of each mutation kind.
var traceKinds = [...]string{
	serve.MutationFail: traceKindFail, serve.MutationRevive: traceKindRevive, serve.MutationMove: traceKindMove,
}

// traceVersion is bumped whenever the line format changes incompatibly.
const traceVersion = 1

// TraceHeader is the first line of a trace: everything a replay needs
// to re-create the run's environment (the deployment is reproducible
// from its spec, so the spec is all that must persist).
type TraceHeader struct {
	Kind      string         `json:"t"`
	Version   int            `json:"v"`
	Scenario  string         `json:"scenario"`
	Deploy    DeploymentSpec `json:"deployment"`
	Algorithm string         `json:"algorithm"`
	Seed      uint64         `json:"seed,omitempty"`
}

// TraceEvent is one request or churn line of a trace. At is the event's
// intended time as a nanosecond offset from the measured run's start —
// for requests, the *arrival* time the open loop scheduled (not when a
// worker got to it), so a replay reproduces the offered load, not the
// original run's service jitter.
type TraceEvent struct {
	Kind string `json:"t"`
	At   int64  `json:"at"`
	// Src/Dst are set on request ("r") lines.
	Src topo.NodeID `json:"src"`
	Dst topo.NodeID `json:"dst"`
	// Nodes is set on churn ("f"/"v") lines.
	Nodes []topo.NodeID `json:"nodes,omitempty"`
	// Moves is set on mobility ("m") lines. The kind is additive — old
	// traces never carry it, and readers predating it reject it via the
	// unknown-kind check rather than misreading lines.
	Moves []topo.Move `json:"moves,omitempty"`
}

// TraceSummary is the last line of a trace: the recorded run's outcome
// counts, the reference a replay verifies against (exact for churnless
// traces; see Replay for the churn-boundary caveat).
type TraceSummary struct {
	Kind      string `json:"t"`
	Requests  int64  `json:"requests"`
	Delivered int64  `json:"delivered"`
	Errors    int64  `json:"errors"`
}

// recShards spreads concurrent request recording over independent
// buffers (keyed by source node) so engine workers don't convoy on one
// mutex while their own latency is being measured.
const recShards = 16

// Recorder wraps a Driver and captures the exact (src, dst, intended-at)
// request stream plus churn firings of a run into a trace. Pass it to
// Run (or Replay) in place of the inner driver, then WriteTo/WriteFile
// the trace:
//
//	rec := workload.NewRecorder(drv)
//	rep, err := workload.Run(rec, sc)
//	...
//	err = rec.WriteFile("run.trace.jsonl") // or rec.WriteTrace(w)
//
// The engine feeds the recorder each request's intended arrival offset
// (Driver.Route carries no timestamp), so the Recorder itself stays a
// transparent pass-through; recording works identically for both
// drivers. Entries are buffered in sharded in-memory buffers and
// written merged and sorted by (at, kind, src, dst) — a deterministic
// order independent of worker interleaving and shard assignment, so
// recording the same replayed trace twice produces byte-identical
// files. record is safe for concurrent use by any number of engine
// workers.
type Recorder struct {
	// Driver is the wrapped inner driver; every Driver method passes
	// straight through.
	Driver

	mu     sync.Mutex // guards header and the churn buffer
	header TraceHeader
	churn  []TraceEvent

	shards [recShards]struct {
		mu     sync.Mutex
		events []TraceEvent
	}

	requests  atomic.Int64
	delivered atomic.Int64
	errors    atomic.Int64
}

// NewRecorder wraps a driver for trace capture.
func NewRecorder(inner Driver) *Recorder {
	return &Recorder{Driver: inner}
}

// begin stamps the header from the run's scenario. The engine calls it
// when measurement starts; a second run on the same Recorder resets the
// buffer.
func (rec *Recorder) begin(h TraceHeader) {
	h.Kind = traceKindHeader
	h.Version = traceVersion
	rec.mu.Lock()
	rec.header = h
	rec.churn = rec.churn[:0]
	rec.mu.Unlock()
	for i := range rec.shards {
		sh := &rec.shards[i]
		sh.mu.Lock()
		sh.events = sh.events[:0]
		sh.mu.Unlock()
	}
	rec.requests.Store(0)
	rec.delivered.Store(0)
	rec.errors.Store(0)
}

// record captures one measured request and its outcome.
func (rec *Recorder) record(at time.Duration, src, dst topo.NodeID, out Outcome, err error) {
	rec.requests.Add(1)
	if err != nil {
		rec.errors.Add(1)
	} else if out.Delivered {
		rec.delivered.Add(1)
	}
	sh := &rec.shards[int(src)&(recShards-1)]
	sh.mu.Lock()
	sh.events = append(sh.events, TraceEvent{Kind: traceKindRequest, At: int64(at), Src: src, Dst: dst})
	sh.mu.Unlock()
}

// recordMutation captures one applied mutation at its scheduled
// offset as a fail, revive or move line; an empty one leaves no line.
func (rec *Recorder) recordMutation(at time.Duration, m serve.Mutation) {
	if len(m.Nodes) == 0 && len(m.Moves) == 0 {
		return
	}
	ev := TraceEvent{Kind: traceKinds[m.Kind], At: int64(at), Nodes: slices.Clone(m.Nodes), Moves: slices.Clone(m.Moves)}
	rec.mu.Lock()
	rec.churn = append(rec.churn, ev)
	rec.mu.Unlock()
}

// firing turns a fail, revive or move line back into the firing that
// recorded it: a fail or revive line opens a report phase, a move line
// stays inside its phase, as in the engine's schedule.
func (ev TraceEvent) firing() firing {
	m := serve.Mutation{Kind: serve.MutationKind(slices.Index(traceKinds[:], ev.Kind))}
	if m.Kind == serve.MutationMove {
		m.Moves = ev.Moves
	} else {
		m.Nodes = ev.Nodes
	}
	return firing{at: time.Duration(ev.At), muts: []serve.Mutation{m}, phase: m.Kind != serve.MutationMove}
}

// traceEventRank orders kinds at the same instant: topology mutations
// sort before requests, so a request scheduled exactly at a mutation
// time replays against the post-event topology, matching the engine's
// phase accounting.
func traceEventRank(kind string) int {
	switch kind {
	case traceKindFail:
		return 0
	case traceKindRevive:
		return 1
	case traceKindMove:
		return 2
	default:
		return 3
	}
}

// sortTraceEvents puts events into the one canonical trace order —
// (at, kind rank, src, dst) — shared by WriteTrace and Replay so a
// replayed trace and its re-recording can never order the same events
// differently.
func sortTraceEvents(events []TraceEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if ra, rb := traceEventRank(a.Kind), traceEventRank(b.Kind); ra != rb {
			return ra < rb
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
}

// WriteTrace writes the buffered trace as JSONL: header, time-sorted
// events, summary.
func (rec *Recorder) WriteTrace(w io.Writer) error {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.header.Kind == "" {
		return fmt.Errorf("workload: recorder captured no run")
	}
	events := append([]TraceEvent(nil), rec.churn...)
	for i := range rec.shards {
		sh := &rec.shards[i]
		sh.mu.Lock()
		events = append(events, sh.events...)
		sh.mu.Unlock()
	}
	sortTraceEvents(events)

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(rec.header); err != nil {
		return err
	}
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	sum := TraceSummary{
		Kind:      traceKindSummary,
		Requests:  rec.requests.Load(),
		Delivered: rec.delivered.Load(),
		Errors:    rec.errors.Load(),
	}
	if err := enc.Encode(sum); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the trace to a file.
func (rec *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Trace is a parsed trace: the recorded run's environment, its
// time-ordered request/churn stream, and the recorded outcome counts.
type Trace struct {
	Header  TraceHeader
	Events  []TraceEvent
	Summary *TraceSummary // nil when the trace was truncated before the summary line
}

// ReadTrace parses a JSONL trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var tr Trace
	for n := 0; ; n++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("workload: bad trace line %d: %w", n+1, err)
		}
		var kind struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			return nil, fmt.Errorf("workload: bad trace line %d: %w", n+1, err)
		}
		switch kind.T {
		case traceKindHeader:
			if err := json.Unmarshal(raw, &tr.Header); err != nil {
				return nil, fmt.Errorf("workload: bad trace header: %w", err)
			}
			if tr.Header.Version != traceVersion {
				return nil, fmt.Errorf("workload: trace version %d (this build reads %d)", tr.Header.Version, traceVersion)
			}
		case traceKindRequest, traceKindFail, traceKindRevive, traceKindMove:
			var ev TraceEvent
			if err := json.Unmarshal(raw, &ev); err != nil {
				return nil, fmt.Errorf("workload: bad trace line %d: %w", n+1, err)
			}
			tr.Events = append(tr.Events, ev)
		case traceKindSummary:
			var sum TraceSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return nil, fmt.Errorf("workload: bad trace summary: %w", err)
			}
			tr.Summary = &sum
		default:
			return nil, fmt.Errorf("workload: trace line %d has unknown kind %q", n+1, kind.T)
		}
	}
	if tr.Header.Kind == "" {
		return nil, fmt.Errorf("workload: trace has no header line")
	}
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("workload: trace has no request lines")
	}
	return &tr, nil
}

// ReadTraceFile reads and parses a trace file.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return tr, nil
}
