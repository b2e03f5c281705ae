package workload

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/metrics"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// Options tunes engine behavior that is not part of the scenario
// itself: live progress streaming. The zero value runs silently.
type Options struct {
	// Progress, when non-nil, receives one status line per
	// ProgressEveryMS during the measured window plus one line per
	// churn event — the live view of a long scenario run.
	Progress io.Writer
	// ProgressEveryMS is the status-line period (default 1000).
	ProgressEveryMS int
}

// openQueueCap bounds the open-loop dispatch queue. A full queue means
// the driver cannot absorb the offered rate; further arrivals are shed
// and counted in Report.Dropped rather than silently deferred (which
// would turn the open loop back into a closed one).
const openQueueCap = 1 << 16

// phaseRec accumulates one churn-delimited slice of the run.
type phaseRec struct {
	name      string
	startNS   atomic.Int64 // offset from run start; -1 until activated
	requests  atomic.Int64
	delivered atomic.Int64
	cached    atomic.Int64
	errors    atomic.Int64
	hist      metrics.Histogram
}

// run is the mutable state of one scenario execution.
type run struct {
	drv    Driver
	sc     *Scenario
	opts   Options
	progMu sync.Mutex // serializes progress lines (ticker vs schedule)
	tr     *traffic
	dep    string
	start  time.Time
	phases []*phaseRec
	cur    atomic.Int64
	// live folds the mutations that applied; the firing goroutine owns
	// it. failed is its dead set, published once per churn firing for
	// pickers to read lock-free on every draw (firings are rare, draws
	// are not). Both dead sets are sorted.
	live      serve.DeploymentState
	failed    atomic.Pointer[[]topo.NodeID]
	timeline  []atomic.Int64
	dropped   atomic.Int64
	moved     atomic.Int64
	errSample atomic.Pointer[string]
	churn     []AppliedChurn // owned by the firing goroutine
	// churnPlan is the churn schedule with every victim set resolved up
	// front — a pure function of the scenario seed. The open-loop
	// generator reads each firing's scheduled dead set, so pair picks
	// never depend on how late a firing actually applied.
	churnPlan []firing
	// rec is non-nil when the driver is a *Recorder: the engine feeds
	// it each request's intended arrival offset (the Driver interface
	// carries no timestamps).
	rec *Recorder
}

// Run executes one scenario against a driver and returns its report.
// The scenario is validated (and its defaults filled) first; the
// deployment is registered and built, warmup requests are routed
// unrecorded, and then the arrival process runs with the churn and
// mobility schedule firing concurrently.
func Run(drv Driver, sc *Scenario) (*Report, error) {
	return RunWith(drv, sc, Options{})
}

// RunWith is Run with engine options (live progress streaming).
func RunWith(drv Driver, sc *Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// Expand any generated churn process into concrete events. This
	// happens here, not in Validate, so re-validating a scenario (the
	// sweep ladder does, per rung) can never double the schedule; the
	// caller's scenario is left untouched.
	sc = sc.expandChurn()
	tr, err := buildTraffic(sc)
	if err != nil {
		return nil, err
	}
	dep, err := drv.Deploy(sc.Deployment.Name, sc.Deployment)
	if err != nil {
		return nil, fmt.Errorf("workload: deploying %s: %w", sc.Name, err)
	}
	r := &run{drv: drv, sc: sc, opts: opts, tr: tr, dep: dep}
	if rec, ok := drv.(*Recorder); ok {
		r.rec = rec
		rec.begin(TraceHeader{Scenario: sc.Name, Deploy: sc.Deployment, Algorithm: sc.Algorithm, Seed: sc.Seed})
	}
	r.failed.Store(new([]topo.NodeID))
	if err := r.warmup(); err != nil {
		return nil, fmt.Errorf("workload: warmup: %w", err)
	}
	return r.measure()
}

func (r *run) alive(u topo.NodeID) bool { return !isDead(*r.failed.Load(), u) }

// isDead reports whether u is in the sorted dead set.
func isDead(dead []topo.NodeID, u topo.NodeID) bool {
	_, found := slices.BinarySearch(dead, u)
	return found
}

// arrival is one request of the run. t0 is its intended start (the
// arrival time for open loops, charging queueing delay to latency — no
// coordinated omission); at is its offset from the run start, the
// timestamp the trace recorder persists.
type arrival struct {
	t0       time.Time
	at       time.Duration
	src, dst topo.NodeID
}

// routeOnce issues one request and records it into the current phase.
func (r *run) routeOnce(a arrival) {
	out, err := r.drv.Route(r.dep, r.sc.Algorithm, a.src, a.dst)
	if r.rec != nil {
		r.rec.record(a.at, a.src, a.dst, out, err)
	}
	ph := r.phases[r.cur.Load()]
	ph.requests.Add(1)
	if err != nil {
		ph.errors.Add(1)
		msg := err.Error()
		r.errSample.CompareAndSwap(nil, &msg)
		return
	}
	ph.hist.Observe(int64(time.Since(a.t0)))
	if out.Delivered {
		ph.delivered.Add(1)
	}
	if out.Cached {
		ph.cached.Add(1)
	}
	idx := int(time.Since(r.start).Milliseconds()) / r.sc.TimelineBucketMS
	if idx >= len(r.timeline) {
		idx = len(r.timeline) - 1
	}
	if idx >= 0 {
		r.timeline[idx].Add(1)
	}
}

// warmup routes WarmupRequests without recording: it pays the lazy
// build (if Deploy didn't) and primes the route cache.
func (r *run) warmup() error {
	n := r.sc.WarmupRequests
	if n == 0 {
		return nil
	}
	conc := min(4, n)
	var next atomic.Int64
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := r.tr.picker(uint64(1000+w), r.alive)
			for int(next.Add(1)) <= n {
				src, dst := pick()
				if _, err := r.drv.Route(r.dep, r.sc.Algorithm, src, dst); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// initPhases sets up the phase records (one per expected churn
// boundary plus the initial phase; startNS -1 marks a phase whose
// boundary never fired) and the throughput timeline. Shared by the
// scenario engine and trace replay so their report shapes cannot
// drift apart.
func (r *run) initPhases(churnBoundaries, timelineBuckets int) {
	r.phases = make([]*phaseRec, churnBoundaries+1)
	for i := range r.phases {
		r.phases[i] = &phaseRec{name: fmt.Sprintf("phase-%d", i)}
		r.phases[i].startNS.Store(-1)
	}
	r.phases[0].startNS.Store(0)
	r.timeline = make([]atomic.Int64, timelineBuckets)
}

// openPhase stamps the next phase as starting now and directs
// subsequent samples into it. Only the firing goroutine calls it.
func (r *run) openPhase() {
	i := r.cur.Load() + 1
	r.phases[i].startNS.Store(int64(time.Since(r.start)))
	r.cur.Store(i)
}

// measure runs the measured portion: arrival process plus the
// schedule of topology changes, then assembles the report.
func (r *run) measure() (*Report, error) {
	sc := r.sc
	buckets := 4096 // closed loop: unknown duration, clamp into the tail
	if sc.Arrival.Process != ArrivalClosed {
		buckets = sc.Arrival.DurationMS/sc.TimelineBucketMS + 64
	}
	r.initPhases(len(sc.Churn), buckets)
	r.churnPlan = r.resolveChurn()

	r.start = time.Now()
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		r.runSchedule(stop)
	}()
	if r.opts.Progress != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.runProgress(stop)
		}()
	}

	if sc.Arrival.Process == ArrivalClosed {
		r.runClosed()
	} else {
		r.runOpen()
	}
	elapsed := time.Since(r.start)
	close(stop)
	bg.Wait()
	rep, err := r.report(elapsed)
	if rep != nil {
		r.attachJournal(rep)
	}
	return rep, err
}

// attachJournal embeds the journal events the server raised inside the
// measured window. A driver without the /events surface (an older
// wasnd) simply yields no journal.
func (r *run) attachJournal(rep *Report) {
	rep.StartUnixMs = r.start.UnixMilli()
	if evs, err := r.drv.Events(0); err == nil {
		for _, ev := range evs {
			if ev.UnixMS >= rep.StartUnixMs {
				rep.Journal = append(rep.Journal, ev)
			}
		}
	}
}

// progressf emits one progress line, serialized against concurrent
// emitters (the ticker and the firing goroutine share the writer).
func (r *run) progressf(format string, args ...any) {
	if r.opts.Progress == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	fmt.Fprintf(r.opts.Progress, "[workload] t=%6.1fs %s\n",
		time.Since(r.start).Seconds(), fmt.Sprintf(format, args...))
}

// totals sums the phase records.
func (r *run) totals() (req, del, errs int64) {
	for _, ph := range r.phases {
		req += ph.requests.Load()
		del += ph.delivered.Load()
		errs += ph.errors.Load()
	}
	return req, del, errs
}

// runProgress streams one status line per period until stopped.
func (r *run) runProgress(stop <-chan struct{}) {
	every := time.Duration(r.opts.ProgressEveryMS) * time.Millisecond
	if every <= 0 {
		every = time.Second
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var lastReq int64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		req, del, errs := r.totals()
		var rate float64
		if secs := every.Seconds(); secs > 0 {
			rate = float64(req-lastReq) / secs
		}
		lastReq = req
		var delivered float64
		if ok := req - errs; ok > 0 {
			delivered = 100 * float64(del) / float64(ok)
		}
		r.progressf("%s req=%d rps=%.0f delivered=%.1f%% err=%d drop=%d",
			r.phases[r.cur.Load()].name, req, rate, delivered, errs, r.dropped.Load())
	}
}

// runClosed issues exactly Requests requests from Concurrency clients,
// each starting the next as soon as the last returns.
func (r *run) runClosed() {
	sc := r.sc
	conc := sc.Arrival.Concurrency
	if conc <= 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := r.tr.picker(uint64(w), r.alive)
			for int(next.Add(1)) <= sc.Arrival.Requests {
				src, dst := pick()
				now := time.Now()
				r.routeOnce(arrival{t0: now, at: now.Sub(r.start), src: src, dst: dst})
			}
		}(w)
	}
	wg.Wait()
}

// runOpen paces a Poisson arrival process (optionally on/off modulated)
// in real time for DurationMS, dispatching arrivals to a worker pool
// through a bounded queue. Latency is measured from each arrival's
// scheduled time, so queueing under overload is charged to the request.
//
// The generator draws each arrival's (src, dst) pair itself — workers
// only route. Pair picks consult the *resolved* churn plan's dead set
// at the arrival's scheduled offset, not the live one, so the request
// stream is a pure function of the scenario seed: recording the same
// scenario twice yields bit-identical request lines regardless of
// worker scheduling or how late a churn firing actually applied.
func (r *run) runOpen() {
	sc := r.sc
	queue := make(chan arrival, openQueueCap)
	var wg sync.WaitGroup
	r.startWorkers(sc.Arrival.Concurrency, queue, &wg)

	var schedDead []topo.NodeID
	plan := r.churnPlan
	pick := r.tr.picker(0, func(u topo.NodeID) bool { return !isDead(schedDead, u) })

	rng := rand.New(rand.NewPCG(sc.Seed, 0xa5a5a5a5))
	duration := time.Duration(sc.Arrival.DurationMS) * time.Millisecond
	var onTime float64 // cumulative seconds of on-period arrival time
	for {
		onTime += rng.ExpFloat64() / sc.Arrival.RateHz
		offset := r.wallOffset(onTime)
		if offset >= duration {
			break
		}
		// Advance the scheduled dead set to this arrival's instant, then
		// draw the pair before sleeping (the pick depends only on the
		// schedule, never on wall-clock state).
		for len(plan) > 0 && plan[0].at <= offset {
			schedDead, plan = plan[0].dead, plan[1:]
		}
		src, dst := pick()
		at := r.start.Add(offset)
		pace(at)
		select {
		case queue <- arrival{t0: at, at: offset, src: src, dst: dst}:
		default:
			r.dropped.Add(1)
		}
	}
	close(queue)
	wg.Wait()
}

// startWorkers starts conc workers (default 4×GOMAXPROCS) that route
// every arrival of queue until it closes.
func (r *run) startWorkers(conc int, queue <-chan arrival, wg *sync.WaitGroup) {
	if conc <= 0 {
		conc = 4 * runtime.GOMAXPROCS(0)
	}
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				r.routeOnce(a)
			}
		}()
	}
}

// wallOffset maps cumulative on-period time to a wall-clock offset:
// identity for pure Poisson, and stretched around the silent off
// windows for bursty arrivals (arrivals run at RateHz during on
// windows, pause during off windows).
func (r *run) wallOffset(onTime float64) time.Duration {
	a := r.sc.Arrival
	if a.Process != ArrivalBursty {
		return time.Duration(onTime * float64(time.Second))
	}
	on := float64(a.OnMS) / 1000
	cycle := float64(a.OnMS+a.OffMS) / 1000
	full := int(onTime / on)
	rem := onTime - float64(full)*on
	return time.Duration((float64(full)*cycle + rem) * float64(time.Second))
}

// pace blocks until t. It sleeps coarse and spins fine: time.Sleep
// routinely oversleeps by hundreds of microseconds, which would be
// charged to every request's latency (latency runs from the intended
// arrival). The final stretch yields the processor instead of
// blocking, so workers keep draining on a single-core box.
func pace(t time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(t); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// firing is one scheduled topology change of a run: the mutations it
// applies, in order, at offset at from the run start. A churn firing
// (phase) opens the next report phase, and when the engine resolved it
// dead holds the scheduled dead set after it, sorted; a mobility firing
// is one move batch inside its phase.
type firing struct {
	at    time.Duration
	muts  []serve.Mutation
	phase bool
	dead  []topo.NodeID
}

// resolveChurn fixes every churn event's victims up front, walking the
// schedule with one seeded rng and folding the scheduled dead set with
// serve.DeploymentState.Apply, so the plan is a pure function of the
// scenario seed. The plan assumes every event applies (a driver error
// at fire time leaves the *live* dead set behind the scheduled one, but
// never changes what was scheduled — recorded traces stay deterministic
// even across transient driver failures).
func (r *run) resolveChurn() []firing {
	rng := rand.New(rand.NewPCG(r.sc.Seed, 0xc0ffee))
	var st serve.DeploymentState
	plan := make([]firing, 0, len(r.sc.Churn))
	for _, ev := range r.sc.Churn {
		fail := append(slices.Clone(ev.Fail), r.tr.randomVictims(rng, ev.FailRandom, st.Failed)...)
		st.Apply(serve.Mutation{Kind: serve.MutationFail, Nodes: fail})
		revive := slices.Clone(ev.Revive)
		if ev.ReviveAll {
			revive = append(revive, st.Failed...)
		} else {
			dead := slices.Clone(st.Failed)
			for j := 0; j < ev.ReviveRandom && len(dead) > 0; j++ {
				i := rng.IntN(len(dead))
				revive = append(revive, dead[i])
				dead = slices.Delete(dead, i, i+1)
			}
		}
		st.Apply(serve.Mutation{Kind: serve.MutationRevive, Nodes: revive})
		f := firing{at: time.Duration(ev.AtMS) * time.Millisecond, phase: true, dead: st.Failed}
		for _, m := range []serve.Mutation{{Kind: serve.MutationFail, Nodes: fail}, {Kind: serve.MutationRevive, Nodes: revive}} {
			if len(m.Nodes) > 0 {
				f.muts = append(f.muts, m)
			}
		}
		plan = append(plan, f)
	}
	return plan
}

// mobility returns the scenario's move batches as a lazy generator:
// each call advances the mobile sinks one step along their seeded
// random-waypoint walks, redraws a seeded DriftFraction of the nodes
// with Gaussian drift, and returns the batch of the next interval that
// moves anything, or false once the run is over. The walk state lives
// entirely on the offline position snapshot, so the k-th batch is a
// pure function of the scenario — wall-clock only decides *when* a
// batch applies, never what it contains.
func (r *run) mobility() func() (firing, bool) {
	mb := r.sc.Mobility
	if mb == nil {
		return func() (firing, bool) { return firing{}, false }
	}
	rng := rand.New(rand.NewPCG(r.sc.Seed, 0x6d6f62696c697479))
	pos := append([]geom.Point(nil), r.tr.positions...)
	field := r.tr.field

	// Mobile sinks: the convergecast sinks themselves when the traffic
	// pattern has them (the paper's mobile-sink regime), seeded picks
	// otherwise.
	var sinks []topo.NodeID
	if len(r.tr.sinks) > 0 {
		sinks = append(sinks, r.tr.sinks...)
		if len(sinks) > mb.Sinks {
			sinks = sinks[:mb.Sinks]
		}
	} else {
		for _, i := range rng.Perm(len(r.tr.members))[:mb.Sinks] {
			sinks = append(sinks, r.tr.members[i])
		}
	}
	waypoint := make([]geom.Point, len(sinks))
	randPoint := func() geom.Point {
		return geom.Pt(field.Min.X+rng.Float64()*field.Width(), field.Min.Y+rng.Float64()*field.Height())
	}
	for i := range sinks {
		waypoint[i] = randPoint()
	}

	step := mb.SinkSpeed * float64(mb.IntervalMS) / 1000
	interval := time.Duration(mb.IntervalMS) * time.Millisecond
	duration := time.Duration(r.sc.Arrival.DurationMS) * time.Millisecond
	k := 0
	return func() (firing, bool) {
		for {
			k++
			at := time.Duration(k) * interval
			if at >= duration {
				return firing{}, false
			}
			var moves []topo.Move
			for i, s := range sinks {
				p := pos[s]
				for {
					d := geom.Dist(p, waypoint[i])
					if d > step {
						t := step / d
						p = geom.Pt(p.X+(waypoint[i].X-p.X)*t, p.Y+(waypoint[i].Y-p.Y)*t)
						break
					}
					p = waypoint[i]
					waypoint[i] = randPoint()
				}
				pos[s] = p
				moves = append(moves, topo.Move{Node: s, X: p.X, Y: p.Y})
			}
			if mb.DriftFraction > 0 {
				for _, u := range r.tr.members {
					if slices.Contains(sinks, u) || rng.Float64() >= mb.DriftFraction {
						continue
					}
					p := geom.Pt(pos[u].X+rng.NormFloat64()*mb.DriftSigma, pos[u].Y+rng.NormFloat64()*mb.DriftSigma)
					p.X = min(max(p.X, field.Min.X), field.Max.X)
					p.Y = min(max(p.Y, field.Min.Y), field.Max.Y)
					pos[u] = p
					moves = append(moves, topo.Move{Node: u, X: p.X, Y: p.Y})
				}
			}
			if len(moves) > 0 {
				return firing{at: at, muts: []serve.Mutation{{Kind: serve.MutationMove, Moves: moves}}}, true
			}
		}
	}
}

// runSchedule fires the run's topology changes in time order: the
// resolved churn plan merged with the mobility batches, which are drawn
// one ahead of the clock, never for the whole run. Churn fires first at
// a tie. It returns when the schedule runs out or when stop closes
// before the next firing is due; a firing that came due while an
// earlier one was still applying fires even if stop has closed since,
// so a slow mutation never drops the ones queued behind it.
func (r *run) runSchedule(stop <-chan struct{}) {
	plan, nextMove := r.churnPlan, r.mobility()
	move, moving := nextMove()
	for len(plan) > 0 || moving {
		var f firing
		if len(plan) > 0 && (!moving || plan[0].at <= move.at) {
			f, plan = plan[0], plan[1:]
		} else {
			f = move
			move, moving = nextMove()
		}
		if wait := f.at - time.Since(r.start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		r.fire(f)
	}
}

// fire applies one firing's mutations through the driver, stopping at
// the first that fails, and records each applied one at the firing's
// scheduled offset, not its wall-clock time, so re-recording a replay
// reproduces the original lines bit for bit. A churn firing then
// publishes the live dead set and opens the next phase: samples
// recorded from there on belong to the post-firing topology (in-flight
// requests may straddle the boundary; with firings rare relative to
// requests the smear is negligible). Mobility firings are continuous
// background churn, not phase boundaries; their volume lands in
// Report.MovedNodes.
func (r *run) fire(f firing) {
	applied := AppliedChurn{AtMS: int(f.at / time.Millisecond)}
	for _, m := range f.muts {
		if err := r.drv.Mutate(r.dep, m); err != nil {
			applied.Err = err.Error()
			break
		}
		if r.rec != nil {
			r.rec.recordMutation(f.at, m)
		}
		r.live.Apply(m)
		switch m.Kind {
		case serve.MutationFail:
			applied.Failed = m.Nodes
		case serve.MutationRevive:
			applied.Revived = m.Nodes
		default:
			r.moved.Add(int64(len(m.Moves)))
		}
	}
	if !f.phase {
		if applied.Err != "" {
			r.progressf("mobility @%dms failed to apply: %s", applied.AtMS, applied.Err)
		}
		return
	}
	dead := r.live.Failed
	r.failed.Store(&dead)
	applied.AppliedMS = float64(time.Since(r.start).Microseconds()) / 1000
	r.churn = append(r.churn, applied)
	r.openPhase()
	if applied.Err != "" {
		r.progressf("churn @%dms failed to apply: %s", applied.AtMS, applied.Err)
	} else {
		r.progressf("churn @%dms: failed=%d revived=%d -> %s",
			applied.AtMS, len(applied.Failed), len(applied.Revived), r.phases[r.cur.Load()].name)
	}
}

// report assembles the Report from the accumulated phase records.
func (r *run) report(elapsed time.Duration) (*Report, error) {
	sc := r.sc
	rep := &Report{
		Scenario:   sc.Name,
		Driver:     r.drv.Name(),
		Deployment: r.dep,
		Algorithm:  sc.Algorithm,
		Arrival:    sc.Arrival,
		Traffic:    sc.Traffic,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Dropped:    r.dropped.Load(),
		MovedNodes: r.moved.Load(),
		Churn:      r.churn,
	}
	if sc.Arrival.Process == ArrivalPoisson {
		rep.OfferedRPS = sc.Arrival.RateHz
	} else if sc.Arrival.Process == ArrivalBursty {
		on, off := float64(sc.Arrival.OnMS), float64(sc.Arrival.OffMS)
		rep.OfferedRPS = sc.Arrival.RateHz * on / (on + off)
	}

	var total metrics.Histogram
	var cached int64
	for i, ph := range r.phases {
		start := ph.startNS.Load()
		if start < 0 {
			continue // churn event never fired (closed loop ended first)
		}
		// An event firing in the shutdown window can stamp its phase
		// just past the measured run; clamp so EndMS >= StartMS.
		if start > int64(elapsed) {
			start = int64(elapsed)
		}
		end := float64(elapsed)
		for j := i + 1; j < len(r.phases); j++ {
			if s := r.phases[j].startNS.Load(); s >= 0 {
				end = min(float64(s), float64(elapsed))
				break
			}
		}
		req, del, errs := ph.requests.Load(), ph.delivered.Load(), ph.errors.Load()
		rep.Requests += req
		rep.Delivered += del
		rep.Errors += errs
		cached += ph.cached.Load()
		total.Merge(&ph.hist)
		pr := PhaseReport{
			Name:      ph.name,
			StartMS:   float64(start) / 1e6,
			EndMS:     end / 1e6,
			Requests:  req,
			Delivered: del,
			Errors:    errs,
			Latency:   latencyFrom(&ph.hist),
		}
		if ok := req - errs; ok > 0 {
			pr.DeliveryRate = float64(del) / float64(ok)
		}
		if span := (end - float64(start)) / 1e9; span > 0 {
			pr.ThroughputRPS = float64(req) / span
		}
		rep.Phases = append(rep.Phases, pr)
	}
	rep.Latency = latencyFrom(&total)
	if ok := rep.Requests - rep.Errors; ok > 0 {
		rep.DeliveryRate = float64(rep.Delivered) / float64(ok)
		rep.CachedShare = float64(cached) / float64(ok)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / secs
	}
	if s := r.errSample.Load(); s != nil {
		rep.ErrorSample = *s
	}

	last := len(r.timeline)
	for last > 0 && r.timeline[last-1].Load() == 0 {
		last--
	}
	for i := 0; i < last; i++ {
		rep.Timeline = append(rep.Timeline, TimelinePoint{
			TMS:       int64(i * sc.TimelineBucketMS),
			Completed: r.timeline[i].Load(),
		})
	}

	if st, err := r.drv.Stats(); err == nil {
		rep.Server = &st
	}

	if rep.Requests > 0 && rep.Errors == rep.Requests {
		return rep, fmt.Errorf("workload: every request failed: %s", rep.ErrorSample)
	}
	return rep, nil
}
