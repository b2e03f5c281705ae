package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

// tracer holds one goroutine's spans, aggregated per layer call: the
// benchmark times each call it makes into a layer's public function
// and keeps the durations in memory until the run ends.
type tracer struct {
	spans map[string]*recorder
}

func newTracer() *tracer { return &tracer{spans: map[string]*recorder{}} }

// add records one call to name that took d.
func (t *tracer) add(name string, d time.Duration) {
	r := t.spans[name]
	if r == nil {
		r = &recorder{}
		t.spans[name] = r
	}
	r.add(d)
}

// collect gathers the recorders of one span name across tracers.
func collect(name string, ts ...*tracer) []*recorder {
	var out []*recorder
	for _, t := range ts {
		if r := t.spans[name]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// spanMeanUS is the mean duration of a span name across tracers.
func spanMeanUS(name string, ts ...*tracer) float64 {
	var sum, n int64
	for _, r := range collect(name, ts...) {
		sum += r.sum
		n += r.n
	}
	return frac(float64(sum), float64(n)) / 1e3
}

// loop is one workload's closed loop: step makes client c's next call
// and counts it into t; tr is nil outside traced slices.
type loop struct {
	clients int
	step    func(c int, t *tally, tr *tracer)
}

// closedLoop runs the loop's clients concurrently, each sending its
// next call as soon as the previous one returns, until stop is set. It
// returns the wall time until the last client finished.
func closedLoop(d *loop, tallies []tally, tracers []*tracer, stop *atomic.Bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[c]
			}
			for !stop.Load() {
				d.step(c, &tallies[c], tr)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// stopAfter returns a flag that is set once d has passed. Loops poll
// the flag rather than the clock, because reading the clock costs as
// much as an in-process cache hit on some virtual machines.
func stopAfter(d time.Duration) *atomic.Bool {
	stop := new(atomic.Bool)
	time.AfterFunc(d, func() { stop.Store(true) })
	return stop
}

// procStats is a snapshot of the process-wide counters the runtime
// metrics are deltas of.
type procStats struct {
	at         time.Time
	totalAlloc uint64
	pauseNs    uint64
	cpu        time.Duration
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procStats{
		at:         time.Now(),
		totalAlloc: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// phase is the outcome of the measured phase, split by whether a slice
// was traced.
type phase struct {
	untraced, traced    tally
	untracedT, tracedT  time.Duration // wall time of each kind of slice
	wall, cpu           time.Duration // untraced slices only
	allocBytes, pauseNs uint64        // untraced slices only
	lat                 []*recorder   // untraced call latencies, per client
	tracers             []*tracer
	before, after       serve.Stats
}

// runPhase runs the loop for the plan's measured time. Untraced, that
// is one slice; traced, it alternates untraced and traced quarters so
// the tracing overhead is measured against the same loop.
func runPhase(svc *serve.Service, d *loop, measure time.Duration, traced bool) *phase {
	slices := []bool{false}
	if traced {
		slices = []bool{false, true, false, true}
	}
	ph := &phase{before: svc.Stats()}
	for c := 0; c < d.clients; c++ {
		ph.tracers = append(ph.tracers, newTracer())
	}
	each := measure / time.Duration(len(slices))
	for _, tr := range slices {
		tallies := make([]tally, d.clients)
		var tracers []*tracer
		if tr {
			tracers = ph.tracers
		}
		p0 := readProc()
		el := closedLoop(d, tallies, tracers, stopAfter(each))
		p1 := readProc()
		for c := range tallies {
			if tr {
				ph.traced.merge(&tallies[c])
				continue
			}
			ph.untraced.merge(&tallies[c])
			ph.lat = append(ph.lat, &tallies[c].lat)
		}
		if tr {
			ph.tracedT += el
			continue
		}
		ph.untracedT += el
		ph.wall += p1.at.Sub(p0.at)
		ph.cpu += p1.cpu - p0.cpu
		ph.allocBytes += p1.totalAlloc - p0.totalAlloc
		ph.pauseNs += p1.pauseNs - p0.pauseNs
	}
	ph.after = svc.Stats()
	return ph
}

// mutator fires the churn schedule open-loop: mutation i is due
// (i+1)*mutationEvery after the start, whatever the service is doing.
// Its latency runs from the due time until the call returns.
type mutator struct {
	svc   *serve.Service
	sched *schedule

	seq  atomic.Uint64 // odd while a mutation call is in flight
	done atomic.Bool

	lat, late []float64 // ms from due time to return, and to the call
	tr        *tracer   // spans of the serve mutation calls, by kind
	err       error

	purged  int64     // cache entries the mutations purged
	readers []*tracer // the reader's traced spans beside the mutations
}

func newMutator(svc *serve.Service, sched *schedule) *mutator {
	return &mutator{svc: svc, sched: sched, tr: newTracer()}
}

// completed is the number of mutations applied so far, the index of the
// schedule state the service is in between calls.
func (m *mutator) completed() int { return int(m.seq.Load() / 2) }

// run fires mutations until n have been applied or the next one would
// be due after the deadline (a zero deadline means none). It stops at
// the first failed call.
func (m *mutator) run(n int, deadline time.Time) {
	defer m.done.Store(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i+1) * mutationEvery)
		if !deadline.IsZero() && due.After(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		mu := m.sched.at(i)
		m.seq.Add(1)
		t0 := time.Now()
		err := applyMutation(m.svc, mu)
		m.tr.add("serve.mutation."+mu.kind, time.Since(t0))
		m.seq.Add(1)
		m.lat = append(m.lat, ms(time.Since(due)))
		m.late = append(m.late, ms(t0.Sub(due)))
		if err != nil {
			m.err = err
			return
		}
	}
}

func applyMutation(svc *serve.Service, m mutation) error {
	switch m.kind {
	case mutFail:
		return svc.Fail(fixtureName, m.nodes)
	case mutRevive:
		return svc.Revive(fixtureName, m.nodes)
	default:
		return svc.Move(fixtureName, m.moves)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
