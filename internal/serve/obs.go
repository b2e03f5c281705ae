package serve

import (
	"sync"
	"sync/atomic"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/topo"
	"github.com/straightpath/wasn/internal/trace"
)

// serviceObs owns the service's metric families and the sampled-trace
// ring. The per-algorithm series are resolved once at construction
// (the algorithm set is fixed), so the route path touches only
// pre-resolved atomics — no map lookups or label joins per route.
type serviceObs struct {
	reg *obs.Registry

	// HTTP middleware families, children resolved per endpoint at
	// Handler construction.
	requests      *obs.CounterVec
	requestErrors *obs.CounterVec
	requestDur    *obs.HistogramVec

	// Route outcome families. Recorded when a route is computed; cache
	// hits replay a known outcome and are visible through the cache
	// series instead, keeping the hit path free of extra work.
	alg [numAlgorithms]*algObs

	// Per-deployment substrate timings (label resolved per build /
	// repair, which are rare).
	buildDur  *obs.HistogramVec
	repairDur *obs.HistogramVec

	// Per-substrate repair spans from the core fan-out, children
	// pre-resolved so the family renders (with zero counts) before the
	// first repair — the -check-metrics contract can require it
	// unconditionally.
	repairSafety *obs.Histogram
	repairBound  *obs.Histogram
	repairPlanar *obs.Histogram

	// Sampled decision traces.
	traces    *obs.Counter
	traceSeq  atomic.Int64
	traceEach int64
	ring      traceRing

	// Sampled hop-stretch measurement. stretchDur prices the sampling
	// itself: the reference BFS each sample pays, in its own series so
	// operators can see what StretchSampleEvery costs before tuning it.
	stretchSeq  atomic.Int64
	stretchEach int64
	stretchDur  *obs.Histogram
}

// algObs is the pre-resolved per-algorithm series bundle.
type algObs struct {
	delivered *obs.Counter
	dropped   *obs.Counter
	hops      *obs.Histogram
	stretch   *obs.Histogram
	phase     [core.NumPhases + 1]*obs.Counter
}

// phaseLabel names phases for the phase label of
// wasn_route_phase_hops_total.
func phaseLabel(p core.Phase) string { return p.String() }

// newServiceObs builds the metric set over a fresh registry and
// registers the service-owned families. Counters owned by Service
// itself (builds, routes, ...) are created here too so Stats and the
// exposition read the same atomics.
func newServiceObs(cfg Config) *serviceObs {
	so := &serviceObs{
		reg: obs.NewRegistry(),
		requests: obs.NewCounterVec("wasn_http_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		requestErrors: obs.NewCounterVec("wasn_http_request_errors_total",
			"HTTP requests answered with a 4xx/5xx status, by endpoint.", "endpoint"),
		requestDur: obs.NewHistogramVec("wasn_http_request_duration_us",
			"HTTP request handling latency in microseconds, by endpoint.", "endpoint"),
		buildDur: obs.NewHistogramVec("wasn_build_duration_us",
			"Substrate build latency in microseconds, by deployment.", "deployment"),
		repairDur: obs.NewHistogramVec("wasn_repair_duration_us",
			"Topology-change latency in microseconds (clone, apply, repair and publish of the new version), by deployment.", "deployment"),
		traces: obs.NewCounter("wasn_traces_recorded_total",
			"Route decision traces recorded (sampled plus explicit trace requests)."),
		traceEach:   int64(cfg.TraceSampleEvery),
		stretchEach: int64(cfg.StretchSampleEvery),
		stretchDur: obs.NewHistogram("wasn_stretch_sample_duration_us",
			"Latency of the pooled reference hop-count search each stretch sample pays, in microseconds."),
	}
	repairSub := obs.NewHistogramVec("wasn_repair_substrate_duration_us",
		"Wall time of each substrate's incremental repair pass inside the concurrent repair fan-out, in microseconds, by substrate (safety|bound|planar).",
		"substrate")
	so.repairSafety = repairSub.With("safety")
	so.repairBound = repairSub.With("bound")
	so.repairPlanar = repairSub.With("planar")

	routesTotal := obs.NewCounterVec("wasn_routes_computed_total",
		"Routes computed (cache misses and path/trace requests), by algorithm and outcome.",
		"algorithm", "outcome")
	hops := obs.NewHistogramVec("wasn_route_hops",
		"Hop count of delivered computed routes, by algorithm.", "algorithm")
	phaseHops := obs.NewCounterVec("wasn_route_phase_hops_total",
		"Hops traveled per algorithm phase across computed routes.", "algorithm", "phase")
	stretch := obs.NewHistogramVec("wasn_route_hop_stretch_hundredths",
		"Sampled hop stretch of delivered routes versus the minimum-hop ideal, in hundredths (100 = optimal).",
		"algorithm")
	for i, name := range algorithmNames {
		a := &algObs{
			delivered: routesTotal.With(name, "delivered"),
			dropped:   routesTotal.With(name, "dropped"),
			hops:      hops.With(name),
			stretch:   stretch.With(name),
		}
		for p := core.Phase(1); p <= core.Phase(core.NumPhases); p++ {
			a.phase[p] = phaseHops.With(name, phaseLabel(p))
		}
		so.alg[i] = a
	}

	so.reg.MustRegister(
		so.requests, so.requestErrors, so.requestDur,
		so.buildDur, so.repairDur, repairSub, so.traces, so.stretchDur,
		routesTotal, hops, phaseHops, stretch,
	)
	return so
}

// observeSubstrates folds one repair fan-out's per-substrate spans
// into the substrate histograms (zero spans mean the substrate was
// skipped and are not recorded).
func (so *serviceObs) observeSubstrates(t core.SubstrateTimings) {
	if t.Safety > 0 {
		so.repairSafety.Observe(t.Safety.Microseconds())
	}
	if t.Bound > 0 {
		so.repairBound.Observe(t.Bound.Microseconds())
	}
	if t.Planar > 0 {
		so.repairPlanar.Observe(t.Planar.Microseconds())
	}
}

// recordComputed folds one freshly computed route into the outcome
// series. Called on the cache-miss path only: the route computation
// (microseconds) dwarfs these few uncontended atomic adds.
func (so *serviceObs) recordComputed(alg int, res core.Result) {
	a := so.alg[alg]
	if res.Delivered {
		a.delivered.Inc()
		a.hops.Observe(int64(res.Hops()))
	} else {
		a.dropped.Inc()
	}
	for p := core.Phase(1); p <= core.Phase(core.NumPhases); p++ {
		if n := res.PhaseHops[p]; n > 0 {
			a.phase[p].Add(int64(n))
		}
	}
}

// computed is the number of routes computed so far, delivered or
// dropped, over every algorithm.
func (so *serviceObs) computed() int64 {
	var n int64
	for _, a := range so.alg {
		n += a.delivered.Load() + a.dropped.Load()
	}
	return n
}

// sampleTrace reports whether this computed route should be traced
// into the ring (every TraceSampleEvery-th computed route).
func (so *serviceObs) sampleTrace() bool {
	return so.traceEach > 0 && so.traceSeq.Add(1)%so.traceEach == 0
}

// sampleStretch reports whether this computed route should pay an
// ideal-router reference route for the hop-stretch histogram.
func (so *serviceObs) sampleStretch() bool {
	return so.stretchEach > 0 && so.stretchSeq.Add(1)%so.stretchEach == 0
}

// observeStretch records hops/idealHops in hundredths.
func (so *serviceObs) observeStretch(alg, hops, idealHops int) {
	if idealHops <= 0 || hops <= 0 {
		return
	}
	so.alg[alg].stretch.Observe(int64(hops) * 100 / int64(idealHops))
}

// TraceEvent is one forwarding decision of a traced route, as served
// by /route (trace:true) and /traces.
type TraceEvent struct {
	// Seq is the 1-based hop index.
	Seq int `json:"seq"`
	// From made the decision; To is the chosen successor.
	From topo.NodeID `json:"from"`
	To   topo.NodeID `json:"to"`
	// Phase names the algorithm phase of the decision.
	Phase string `json:"phase"`
}

// TraceRecord is one complete route decision trace.
type TraceRecord struct {
	Deployment string       `json:"deployment"`
	Algorithm  string       `json:"algorithm"`
	Src        topo.NodeID  `json:"src"`
	Dst        topo.NodeID  `json:"dst"`
	Delivered  bool         `json:"delivered"`
	Reason     string       `json:"reason,omitempty"`
	Hops       int          `json:"hops"`
	Events     []TraceEvent `json:"events"`
}

// buildTraceRecord converts recorder events to the wire shape.
func buildTraceRecord(dep, alg string, src, dst topo.NodeID, res core.Result, rec *trace.Recorder) TraceRecord {
	tr := TraceRecord{
		Deployment: dep,
		Algorithm:  alg,
		Src:        src,
		Dst:        dst,
		Delivered:  res.Delivered,
		Hops:       res.Hops(),
		Events:     make([]TraceEvent, 0, rec.Len()),
	}
	if !res.Delivered {
		tr.Reason = res.Reason.String()
	}
	for _, e := range rec.Events() {
		tr.Events = append(tr.Events, TraceEvent{
			Seq: e.Seq, From: e.From, To: e.To, Phase: e.Phase.String(),
		})
	}
	return tr
}

// traceRing holds the most recent sampled traces, newest first on
// read. Writes are O(1) under a small mutex; the ring is off the
// route hot path (only sampled routes reach it).
type traceRing struct {
	mu   sync.Mutex
	buf  [traceRingSize]TraceRecord
	next int
	full bool
}

// traceRingSize is the sampled-trace ring capacity.
const traceRingSize = 32

func (r *traceRing) push(t TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// snapshot returns the buffered traces, newest first.
func (r *traceRing) snapshot() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
