package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

// setupService times set-up from an empty service to a built deployment
// reps times and returns the last service and the median time.
func setupService(reps int) (*serve.Service, float64, error) {
	var svc *serve.Service
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		svc = nil
		runtime.GC() // collect the previous set-up outside the timing
		start := time.Now()
		s := serve.New(serve.Config{})
		if _, err := s.Deploy(fixtureName, fixtureSpec); err != nil {
			return nil, 0, err
		}
		if err := s.Build(fixtureName); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		svc = s
	}
	return svc, median(times), nil
}

// runBench makes one run: set-up, warm-up, the measured phase, the
// churn that gives the mutation metrics, the traced extras, and the
// correctness gate.
func runBench(o options) (*bench, error) {
	b := &bench{o: o, p: newPlan(o.seconds), clients: runtime.NumCPU()}
	fx, err := newFixture()
	if err != nil {
		return nil, err
	}
	b.fx, b.sched = fx, fx.newSchedule(o.seed)
	b.refs = &references{sched: b.sched}
	if o.trace {
		b.buildSpans()
	}
	svc, setupS, err := setupService(b.p.setupReps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b.svc = svc
	if !o.trace {
		b.add("setup_s", setupS, "s")
	}
	b.tp, err = startTransports(svc, b.clients)
	if err != nil {
		return nil, err
	}
	defer b.tp.close()

	ph, mu, err := b.measure()
	if err != nil {
		return nil, err
	}
	b.account(&ph.untraced)
	b.account(&ph.traced)
	if o.trace {
		b.phaseLayers(ph)
		ref, err := b.refs.at(mu.completed())
		if err != nil {
			return nil, err
		}
		if err := b.layerPass(ref); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
	} else {
		b.endToEnd(ph)
	}
	if o.workload != wlChurnMixed {
		// Every workload reports the mutation metrics: after batch-miss's
		// measured phase, a short churn-mixed phase gives them.
		mu = b.churnTail()
	}
	b.mutationMetrics(mu)
	if mu.err != nil {
		b.problem("mutation: %v", mu.err)
	}
	if o.trace {
		if err := b.shadowRepairs(); err != nil {
			return nil, fmt.Errorf("shadow repairs: %w", err)
		}
	}
	if err := b.verify(mu.completed()); err != nil {
		return nil, err
	}
	sort.SliceStable(b.metrics, func(i, j int) bool { return b.metrics[i].name < b.metrics[j].name })
	return b, nil
}

// measure warms the workload up and runs its measured phase. On
// churn-mixed the mutator runs through the phase and is returned;
// elsewhere the returned mutator has applied nothing.
func (b *bench) measure() (*phase, *mutator, error) {
	mu := newMutator(b.svc, b.sched)
	var d *loop
	switch b.o.workload {
	case wlBatchMiss:
		var closeConns func()
		var err error
		if d, closeConns, err = b.batchMissLoop(); err != nil {
			return nil, nil, err
		}
		defer closeConns()
	case wlChurnMixed:
		for _, r := range b.svc.Batch(b.fx.convergecastPool()) {
			b.count(respErr(r))
		}
		d = b.churnReader(mu)
	}
	t := warm(d, b.p.warm)
	b.account(&t)

	if b.o.workload != wlChurnMixed {
		return runPhase(b.svc, d, b.p.measure, b.o.trace), mu, nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.run(int(^uint(0)>>1), time.Now().Add(b.p.measure))
	}()
	ph := runPhase(b.svc, d, b.p.measure, b.o.trace)
	<-done
	mu.purged = ph.after.CachePurged - ph.before.CachePurged
	mu.readers = ph.tracers
	return ph, mu, nil
}

// churnTail is a short churn-mixed phase: the first tailMutations of
// the churn schedule, open-loop on the same due times, beside one
// convergecast reader, traced in a traced run.
func (b *bench) churnTail() *mutator {
	mu := newMutator(b.svc, b.sched)
	d := b.churnReader(mu)
	tallies := make([]tally, 1)
	if b.o.trace {
		mu.readers = []*tracer{newTracer()}
	}
	before := b.svc.Stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.run(b.p.tailMutations, time.Time{})
	}()
	closedLoop(d, tallies, mu.readers, &mu.done)
	<-done
	mu.purged = b.svc.Stats().CachePurged - before.CachePurged
	b.account(&tallies[0])
	return mu
}

// endToEnd reports the untraced phase as a user sees it.
func (b *bench) endToEnd(ph *phase) {
	t := &ph.untraced
	b.add("routes_per_s", frac(float64(t.routes), ph.untracedT.Seconds()), "1/s")
	b.add("req_p50_us", quantileUS(0.50, ph.lat...), "us")
	b.add("req_p99_us", quantileUS(0.99, ph.lat...), "us")
	b.add("delivered_frac", frac(float64(t.delivered), float64(t.routes)), "frac")
	b.add("hops_mean", frac(float64(t.hopsSum), float64(t.delivered)), "hops")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.add("heap_inuse_mb", float64(ms.HeapInuse)/1e6, "MB")
}

// phaseLayers reports what the traced run's phase says about the cache,
// the runtime and the tracing itself.
func (b *bench) phaseLayers(ph *phase) {
	hits := ph.after.CacheHits - ph.before.CacheHits
	misses := ph.after.CacheMisses - ph.before.CacheMisses
	routes := ph.after.Routes - ph.before.Routes
	b.add("serve.cache_hit_frac", frac(float64(hits), float64(hits+misses)), "frac")
	b.add("serve.cache_evictions_per_route", frac(float64(ph.after.CacheEvictions-ph.before.CacheEvictions), float64(routes)), "count")
	u := float64(ph.untraced.routes)
	b.add("runtime.alloc_bytes_per_route", frac(float64(ph.allocBytes), u), "B")
	b.add("runtime.gc_pause_frac", frac(float64(ph.pauseNs), float64(ph.wall)), "frac")
	b.add("runtime.cpu_busy_frac", frac(float64(ph.cpu), float64(ph.wall)*float64(runtime.NumCPU())), "frac")
	untracedRate := frac(u, ph.untracedT.Seconds())
	tracedRate := frac(float64(ph.traced.routes), ph.tracedT.Seconds())
	b.add("bench.tracing_overhead_frac", 1-frac(tracedRate, untracedRate), "frac")
}

// mutationMetrics reports the churn phase's mutations: end to end, their
// latency from due time to return; traced, the serve call spans, the
// cache purges, the generator's lateness and the reads split by whether
// they overlapped a mutation.
func (b *bench) mutationMetrics(mu *mutator) {
	b.attempted += int64(len(mu.lat))
	if mu.err != nil {
		b.failed++
	}
	if !b.o.trace {
		b.add("mutation_p50_ms", quantile(mu.lat, 0.50), "ms")
		b.add("mutation_p90_ms", quantile(mu.lat, 0.90), "ms")
		return
	}
	for _, k := range []string{mutFail, mutRevive, mutMove} {
		b.add("serve.mutation_us."+k, spanMeanUS("serve.mutation."+k, mu.tr), "us")
	}
	b.add("serve.cache_purged_per_mutation", frac(float64(mu.purged), float64(len(mu.lat))), "count")
	b.add("bench.mutation_late_p90_ms", quantile(mu.late, 0.90), "ms")
	b.add("serve.read_p99_us.during_mutation", quantileUS(0.99, collect("serve.read.during_mutation", mu.readers...)...), "us")
	b.add("serve.read_p99_us.between_mutations", quantileUS(0.99, collect("serve.read.between_mutations", mu.readers...)...), "us")
}

// verify is the correctness gate: sampled answers against from-scratch
// builds of the states they were answered in, and fresh routes on the
// final topology against a rebuild of it.
func (b *bench) verify(final int) error {
	n, problems, err := checkSamples(b.refs, b.samples)
	if err != nil {
		return err
	}
	if n == 0 {
		problems = append(problems, "no responses were sampled")
	}
	m, more, err := checkFinal(b.fx, b.svc, b.refs, final, b.o.seed, b.p.finalPairs)
	if err != nil {
		return err
	}
	b.attempted += int64(m)
	for _, p := range append(problems, more...) {
		b.problem("%s", p)
	}
	b.notes = append(b.notes, fmt.Sprintf("checked %d sampled responses and %d routes on the final topology (state %d)", n, m, final))
	return nil
}
