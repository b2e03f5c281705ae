package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
	"github.com/straightpath/wasn/internal/trace"
)

// Spec names a reproducible deployment: the same (model, n, seed,
// coverage) always generates the same network, so a spec is all the
// registry must persist.
type Spec struct {
	Model topo.DeployModel
	N     int
	Seed  uint64
	// Coverage is the obstacle-field coverage target under topo.ModelOB
	// (0 means topo.DefaultObstacleCoverage); ignored for IA/FA.
	Coverage float64
}

// DefaultName derives the registry name used when a deployment is
// registered without one, e.g. "FA-500-42". Obstacle deployments with an
// explicit coverage target append it ("OB-500-42-c25"), so coverage
// ladder rungs register as distinct deployments.
func (sp Spec) DefaultName() string {
	if sp.Model == topo.ModelOB && sp.Coverage > 0 {
		return fmt.Sprintf("%s-%d-%d-c%g", sp.Model, sp.N, sp.Seed, sp.Coverage*100)
	}
	return fmt.Sprintf("%s-%d-%d", sp.Model, sp.N, sp.Seed)
}

// Config tunes a Service. The zero value is ready for production use.
type Config struct {
	// CacheSize is the total route-cache entry budget across all shards
	// (default 65536). Negative disables caching entirely.
	CacheSize int
	// CacheShards is the shard count (default 16).
	CacheShards int
	// Workers bounds batch-engine concurrency (default NumCPU).
	Workers int
	// TTLFactor overrides the per-packet hop budget of every router
	// (core.DefaultTTLFactor when 0).
	TTLFactor int
	// TraceSampleEvery records a decision trace for every N-th computed
	// route into the trace ring (GET /traces). 0 disables sampling;
	// explicit trace:true requests are always traced.
	TraceSampleEvery int
	// TraceRingSize bounds the sampled-trace ring (default 32).
	TraceRingSize int
	// StretchSampleEvery measures hop stretch (algorithm hops versus
	// the minimum-hop ideal) for every N-th computed route. Each sample
	// pays one reference BFS route. 0 disables the measurement.
	StretchSampleEvery int
	// SampleEveryMS starts the flight-recorder sampler: every N
	// milliseconds a background goroutine scrapes the registry and
	// appends one point to each timeline series (GET /timeline). 0
	// disables the sampler — the default, so zero-value Services (unit
	// tests, benchmarks) run no background goroutines; wasnd turns it
	// on via -sample-every. Stop it with Close.
	SampleEveryMS int
	// SampleWindow is the number of timeline samples retained (default
	// 512). Memory is fixed at construction.
	SampleWindow int
	// JournalSize bounds the flight-recorder event journal ring,
	// rounded up to a power of two (default 1024). The journal is
	// always on: writes happen only on topology changes and builds.
	JournalSize int
	// ReplicaID names this process in a sharded fleet (wasnd
	// -replica-id); surfaced on /readyz and in Stats so shard-aware
	// tooling can attribute numbers to replicas. Empty outside a fleet.
	ReplicaID string
	// OnStateChange, when non-nil, is called after every registry state
	// change — deploy, fail, revive, move, restore — outside all
	// service locks. The fleet snapshotter hangs off it to persist the
	// registry (debounced) to disk.
	OnStateChange func()
}

// ErrBuild marks substrate build failures: a server-side fault, not a
// malformed request (the HTTP layer maps it to a 5xx status).
var ErrBuild = errors.New("build failed")

// Service is the concurrent routing service. All methods are safe for
// concurrent use.
type Service struct {
	cfg    Config
	cache  *routeCache // nil when disabled
	flight flightGroup
	so     *serviceObs

	// The flight recorder: a bounded journal of structural events
	// (always on) plus the optional periodic timeline sampler.
	journal *obs.Journal
	sampler *obs.Sampler // nil unless Config.SampleEveryMS > 0

	mu   sync.RWMutex
	deps map[string]*deployment

	// The service counters are obs collectors registered with the
	// service registry: Stats and the /metrics exposition read the same
	// atomics, so the two views cannot disagree.
	builds  *obs.Counter
	routes  *obs.Counter
	batches *obs.Counter
	// mutated counts the nodes each Mutation kind changed.
	mutated [MutationMove + 1]*obs.Counter
}

// New builds a Service.
func New(cfg Config) *Service {
	s := &Service{
		cfg:  cfg,
		deps: make(map[string]*deployment),
		so:   newServiceObs(cfg),
		builds: obs.NewCounter("wasn_substrate_builds_total",
			"Full substrate builds performed (lazy first-use builds)."),
		routes: obs.NewCounter("wasn_routes_total",
			"Route queries answered, cached or computed."),
		batches: obs.NewCounter("wasn_batches_total",
			"Batch requests served."),
		mutated: [...]*obs.Counter{
			MutationFail: obs.NewCounter("wasn_failed_nodes_total",
				"Nodes transitioned to failed."),
			MutationRevive: obs.NewCounter("wasn_revived_nodes_total",
				"Nodes transitioned back to alive."),
			MutationMove: obs.NewCounter("wasn_moved_nodes_total",
				"Node position updates applied."),
		},
	}
	s.so.reg.MustRegister(s.builds, s.routes, s.batches,
		s.mutated[MutationFail], s.mutated[MutationRevive], s.mutated[MutationMove])
	s.so.reg.MustRegister(obs.NewFunc("wasn_deployments",
		"Registered deployments.", obs.KindGauge, func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(len(s.deps))
		}))
	if cfg.CacheSize >= 0 {
		s.cache = newRouteCache(cfg.CacheSize, cfg.CacheShards)
		// The cache keeps shard-local counters bumped under the shard
		// locks; the registry sums them at scrape time instead of
		// maintaining a parallel set.
		s.so.reg.MustRegister(
			obs.NewFunc("wasn_route_cache_hits_total",
				"Route cache lookups answered from the cache.", obs.KindCounter,
				func() float64 { return float64(s.cache.stats().hits) }),
			obs.NewFunc("wasn_route_cache_misses_total",
				"Route cache lookups that required a route computation.", obs.KindCounter,
				func() float64 { return float64(s.cache.stats().misses) }),
			obs.NewFunc("wasn_route_cache_evictions_total",
				"Route cache entries evicted by LRU within their 8-way set (eviction can start before the cache is full).", obs.KindCounter,
				func() float64 { return float64(s.cache.stats().evicted) }),
			obs.NewFunc("wasn_route_cache_purged_total",
				"Route cache entries purged by topology changes.", obs.KindCounter,
				func() float64 { return float64(s.cache.stats().purged) }),
			obs.NewFunc("wasn_route_cache_entries",
				"Live route cache entries.", obs.KindGauge,
				func() float64 { return float64(s.cache.len()) }),
		)
	}
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = runtime.NumCPU()
	}
	s.journal = obs.NewJournal(cfg.JournalSize)
	if cfg.SampleEveryMS > 0 {
		s.sampler = obs.NewSampler(obs.SamplerConfig{
			Scrape: func() (map[string]float64, error) {
				return obs.ParseText(strings.NewReader(s.so.reg.Text()))
			},
			Specs:  defaultSamplerSpecs(),
			Every:  time.Duration(cfg.SampleEveryMS) * time.Millisecond,
			Window: cfg.SampleWindow,
		})
		s.sampler.Start()
	}
	return s
}

// Close stops the flight-recorder sampling goroutine (a no-op when the
// sampler is disabled). The service keeps serving; Close only exists
// so embedders don't leak the ticker goroutine.
func (s *Service) Close() error {
	if s.sampler != nil {
		s.sampler.Stop()
	}
	return nil
}

// Registry exposes the service's metric registry so embedders (wasnd)
// can serve the text exposition and register process-level collectors
// alongside the service families.
func (s *Service) Registry() *obs.Registry { return s.so.reg }

// Traces returns the sampled decision traces currently buffered,
// newest first (see Config.TraceSampleEvery).
func (s *Service) Traces() []TraceRecord { return s.so.ring.snapshot() }

// deployment is one registry entry. The substrates are built lazily on
// first use; mu serializes topology mutations against in-flight routes
// (the routers themselves are safe for concurrent reads of an unchanging
// network — see core.Router).
type deployment struct {
	name string
	spec Spec
	// id is the deployment's registry index, assigned once at Deploy
	// (deployments are never removed); it keys the route cache.
	id uint32

	mu    sync.RWMutex
	epoch atomic.Uint64
	ready atomic.Bool
	dep   *topo.Deployment
	// The three substrates are retained so Mutate can repair them in
	// place (core.RepairSubstrates); the routers hold pointers into
	// them and observe repairs without being rebuilt.
	model   *safety.Model
	bounds  *bound.Boundaries
	planarg *planar.Graph
	routers [numAlgorithms]core.Router
	failed  map[topo.NodeID]bool
	// moved retains the last applied position per ever-moved node —
	// with Failed, the churn half of the deployment's portable state
	// (ExportState).
	moved map[topo.NodeID]topo.Move
	// restore, when non-nil on an unbuilt deployment, is replayed onto
	// the pristine network before the substrates build (RestoreState).
	restore *DeploymentState
	// repairs counts the topology mutations repaired, exported per
	// deployment in Stats so workload reports need no client-side math.
	repairs atomic.Int64
}

// Deploy registers a named deployment spec. name may be empty, in which
// case the spec's default name is used. Registering the same name with
// the same spec is idempotent; a different spec under a live name is an
// error. The returned string is the effective name. Substrates are not
// built here — the first route (or an explicit Build) pays that cost.
func (s *Service) Deploy(name string, spec Spec) (string, error) {
	name, fresh, err := s.deploy(name, spec)
	if fresh {
		s.notifyState()
	}
	return name, err
}

func (s *Service) deploy(name string, spec Spec) (string, bool, error) {
	if spec.Model != topo.ModelIA && spec.Model != topo.ModelFA && spec.Model != topo.ModelOB {
		return "", false, fmt.Errorf("serve: unknown deployment model %v", spec.Model)
	}
	if spec.N <= 0 {
		return "", false, fmt.Errorf("serve: node count must be positive, got %d", spec.N)
	}
	if spec.Coverage < 0 || spec.Coverage >= 1 {
		return "", false, fmt.Errorf("serve: obstacle coverage must be in [0,1), got %v", spec.Coverage)
	}
	if name == "" {
		name = spec.DefaultName()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.deps[name]; ok {
		if d.spec != spec {
			return "", false, fmt.Errorf("serve: deployment %q already registered with spec %+v", name, d.spec)
		}
		return name, false, nil
	}
	s.deps[name] = &deployment{name: name, spec: spec, id: uint32(len(s.deps))}
	return name, true, nil
}

// Deployments lists the registered deployment names, sorted.
func (s *Service) Deployments() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.deps))
	for name := range s.deps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *Service) lookup(name string) (*deployment, error) {
	s.mu.RLock()
	d := s.deps[name]
	s.mu.RUnlock()
	if d == nil {
		return nil, fmt.Errorf("serve: unknown deployment %q (POST /deploy first)", name)
	}
	return d, nil
}

// Build forces the named deployment's substrates to be built now,
// returning the first build error if any. Concurrent Build/Route calls
// for the same deployment share one build via singleflight.
func (s *Service) Build(name string) error {
	d, err := s.lookup(name)
	if err != nil {
		return err
	}
	return s.ensureBuilt(d)
}

func (s *Service) ensureBuilt(d *deployment) error {
	if d.ready.Load() {
		return nil
	}
	return s.flight.Do(d.name, func() error {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.ready.Load() { // lost a forget/retry race; already built
			return nil
		}
		start := time.Now()
		cfg := topo.DefaultDeployConfig(d.spec.Model, d.spec.N, d.spec.Seed)
		if d.spec.Coverage > 0 {
			cfg.ObstacleCoverage = d.spec.Coverage
		}
		dep, err := topo.Deploy(cfg)
		if err != nil {
			return fmt.Errorf("serve: building deployment %q: %w: %w", d.name, ErrBuild, err)
		}
		d.dep = dep
		if rs := d.restore; rs != nil {
			// Restored deployment: replay the snapshot's positions and
			// dead set onto the pristine network now, so the from-scratch
			// build below runs over the origin's exact topology. Repair
			// and rebuild are differentially pinned equal, so the
			// resulting routes are bit-identical to the origin's.
			replay := []Mutation{{Kind: MutationMove, Moves: rs.Moved}, {Kind: MutationFail, Nodes: rs.Failed}}
			for _, m := range replay {
				if _, err := d.apply(m); err != nil {
					return fmt.Errorf("serve: restoring deployment %q: %w: %w", d.name, ErrBuild, err)
				}
			}
			d.epoch.Store(rs.Epoch)
			d.restore = nil
		}
		// The three substrates — safety model, BOUNDHOLE boundaries,
		// Gabriel graph — build concurrently (each also internally
		// parallel over GOMAXPROCS); the router set shares them.
		d.model, d.bounds, d.planarg = core.BuildSubstrates(dep.Net, true, true, true, nil)
		d.routers = s.buildRouters(dep.Net, d.model, d.bounds, d.planarg)
		s.builds.Inc()
		s.so.buildDur.With(d.name).Observe(time.Since(start).Microseconds())
		s.journal.Record(obs.Event{
			UnixMS:     time.Now().UnixMilli(),
			Kind:       obs.EventBuild,
			Deployment: d.name,
			Nodes:      d.spec.N,
			DurationUS: time.Since(start).Microseconds(),
		})
		d.ready.Store(true)
		return nil
	})
}

// buildRouters constructs the full router set over a network, indexed
// like algorithmNames and mirroring the facade's Sim (wasn.NewSim)
// algorithm table.
func (s *Service) buildRouters(net *topo.Network, m *safety.Model, b *bound.Boundaries, g *planar.Graph) [numAlgorithms]core.Router {
	gf := core.NewGF(net, b)
	gf.TTLFactor = s.cfg.TTLFactor
	lgf := core.NewLGF(net)
	lgf.TTLFactor = s.cfg.TTLFactor
	slgf := core.NewSLGF(net, m)
	slgf.TTLFactor = s.cfg.TTLFactor
	slgf2 := core.NewSLGF2(net, m, core.WithPlanarGraph(g))
	slgf2.TTLFactor = s.cfg.TTLFactor
	gpsr := core.NewGPSR(net, g)
	gpsr.TTLFactor = s.cfg.TTLFactor
	return [numAlgorithms]core.Router{
		gf, lgf, slgf, slgf2, gpsr,
		core.NewIdeal(net, core.IdealMinHop),
		core.NewIdeal(net, core.IdealMinLength),
	}
}

// Route answers one route query, consulting the cache first. The second
// return reports whether the result came from the cache.
//
// Cached results carry no Path: the cache stores only the aggregate
// outcome (delivered, hops, length, phase counts), which keeps cache
// memory flat and lets the batch engine route into reused buffers.
// Result.Hops and the rest remain valid either way; callers that need
// the traveled path of a possibly cached pair use the HTTP API's
// path:true (which computes a fresh route) or a Router directly.
func (s *Service) Route(deployment, algorithm string, src, dst topo.NodeID) (core.Result, bool, error) {
	return s.route(deployment, algorithm, src, dst, nil, false, nil)
}

// RouteTraced computes one route (bypassing the cache read; the result
// is still cached) and returns the hop-by-hop decision trace alongside
// the result — the service method behind /route with trace:true.
func (s *Service) RouteTraced(deployment, algorithm string, src, dst topo.NodeID) (core.Result, TraceRecord, error) {
	rec := trace.Acquire()
	defer trace.Release(rec)
	res, _, err := s.route(deployment, algorithm, src, dst, nil, true, rec)
	if err != nil {
		return core.Result{}, TraceRecord{}, err
	}
	s.so.traces.Inc()
	return res, buildTraceRecord(deployment, algorithm, src, dst, res, rec), nil
}

// route is the shared single-route path behind Route, the batch
// engine, and the HTTP handlers. pathBuf, when non-nil, is handed to
// Router.RouteInto so the traveled path is appended into it (batch
// workers pass one reusable buffer each, making a warm batch
// allocation-free per route). skipCacheRead bypasses the cache lookup
// — for callers that need the full path even for cached pairs — while
// still caching the computed result for later pathless readers. rec,
// when non-nil, receives every forwarding decision of the computed
// route (callers passing rec also pass skipCacheRead, since a cache
// hit computes no hops to observe).
func (s *Service) route(deployment, algorithm string, src, dst topo.NodeID, pathBuf []topo.NodeID, skipCacheRead bool, rec *trace.Recorder) (core.Result, bool, error) {
	d, err := s.lookup(deployment)
	if err != nil {
		return core.Result{}, false, err
	}
	// Validate before ensureBuilt: a garbage request must not trigger
	// the expensive lazy substrate build. The node range is known from
	// the spec alone.
	if src < 0 || dst < 0 || int(src) >= d.spec.N || int(dst) >= d.spec.N {
		return core.Result{}, false, fmt.Errorf("serve: node out of range [0,%d): src=%d dst=%d", d.spec.N, src, dst)
	}
	ai, ok := algorithmIndex(algorithm)
	if !ok {
		return core.Result{}, false, fmt.Errorf("serve: unknown algorithm %q (want one of %v)", algorithm, Algorithms())
	}
	if err := s.ensureBuilt(d); err != nil {
		return core.Result{}, false, err
	}

	d.mu.RLock()
	defer d.mu.RUnlock()
	r := d.routers[ai]

	key := cacheKey{epoch: d.epoch.Load(), src: src, dst: dst, dep: d.id, alg: uint32(ai)}
	if s.cache != nil && !skipCacheRead {
		if res, hit := s.cache.get(key); hit {
			s.routes.Inc()
			return res, true, nil
		}
	}
	var res core.Result
	switch {
	case rec != nil:
		res = routeObserved(r, src, dst, pathBuf, rec)
	case s.so.sampleTrace():
		srec := trace.Acquire()
		res = routeObserved(r, src, dst, pathBuf, srec)
		s.so.ring.push(buildTraceRecord(d.name, algorithm, src, dst, res, srec))
		s.so.traces.Inc()
		trace.Release(srec)
	default:
		res = r.RouteInto(src, dst, pathBuf)
	}
	s.so.recordComputed(ai, res)
	if res.Delivered && !isIdealAlgorithm(algorithm) && s.so.sampleStretch() {
		// One pathless reference BFS per sample (pooled scratch, no
		// route materialized — the comparison only needs the count);
		// still under the RLock, so it runs against the same topology
		// epoch. Its cost lands in the dedicated duration series.
		start := time.Now()
		ihops := topo.HopCount(d.dep.Net, src, dst)
		s.so.stretchDur.Observe(time.Since(start).Microseconds())
		if ihops > 0 {
			s.so.observeStretch(ai, res.Hops(), ihops)
		}
	}
	if s.cache != nil {
		// Still under RLock: the epoch in key cannot have been bumped,
		// so the entry matches the topology it was computed on. put
		// strips the path, so caching never retains pathBuf.
		s.cache.put(key, res)
	}
	s.routes.Inc()
	return res, false, nil
}

// routeObserved routes with the decision recorder attached. Every
// router in the set implements core.ObservedRouter; the fallback keeps
// a hypothetical future router without the extension working, minus
// tracing.
func routeObserved(r core.Router, src, dst topo.NodeID, pathBuf []topo.NodeID, rec *trace.Recorder) core.Result {
	if or, ok := r.(core.ObservedRouter); ok {
		return or.RouteObserved(src, dst, pathBuf, rec)
	}
	return r.RouteInto(src, dst, pathBuf)
}

// isIdealAlgorithm reports whether name is one of the omniscient
// reference routers (their hop stretch is 1 by construction).
func isIdealAlgorithm(name string) bool {
	return strings.HasPrefix(name, "Ideal")
}

// Fail marks nodes of the named deployment dead — Mutate with a
// MutationFail. Nodes already dead are ignored.
func (s *Service) Fail(deployment string, nodes []topo.NodeID) error {
	return s.Mutate(deployment, Mutation{Kind: MutationFail, Nodes: nodes}, "")
}

// Revive brings failed nodes of the named deployment back to life —
// Mutate with a MutationRevive. Reviving a node that is not dead is a
// no-op.
func (s *Service) Revive(deployment string, nodes []topo.NodeID) error {
	return s.Mutate(deployment, Mutation{Kind: MutationRevive, Nodes: nodes}, "")
}

// Move relocates nodes of the named deployment under live traffic —
// Mutate with a MutationMove. Moving a dead node is allowed; liveness
// is orthogonal to position.
func (s *Service) Move(deployment string, moves []topo.Move) error {
	return s.Mutate(deployment, Mutation{Kind: MutationMove, Moves: moves}, "")
}

// Mutate applies one topology change to the named deployment. It is the
// only write path to a built topology: Fail, Revive, Move, the /fail,
// /revive and /move handlers and live restore reconciliation all call
// it. Under the deployment write lock it range-checks every node,
// narrows the mutation to the nodes it changes (a no-op returns
// without touching anything), applies it to the network, repairs all
// three substrates in place, bumps the epoch (which invalidates every
// cached route of the deployment), purges the stale cache entries, and
// journals the event under requestID (empty for untagged callers).
//
// The repair is incremental — core.RepairSubstrates for liveness
// changes, core.RepairSubstratesMoved over the geometric dirty set of a
// move — and each repaired substrate is identical to a from-scratch
// build over the mutated topology, so every router serves exactly what
// a fresh Sim would. The routers hold pointers into the substrates and
// observe the repair without being rebuilt.
func (s *Service) Mutate(deployment string, m Mutation, requestID string) error {
	if m.Kind < MutationFail || m.Kind > MutationMove {
		return fmt.Errorf("serve: unknown mutation kind %v", m.Kind)
	}
	d, err := s.lookup(deployment)
	if err != nil {
		return err
	}
	if err := s.ensureBuilt(d); err != nil {
		return err
	}
	d.mu.Lock()
	changed, err := s.mutateLocked(d, m, requestID)
	d.mu.Unlock()
	if changed {
		s.notifyState()
	}
	return err
}

// mutateLocked is the body of Mutate, run under the deployment write
// lock. It reports whether the topology changed.
func (s *Service) mutateLocked(d *deployment, m Mutation, requestID string) (bool, error) {
	n := d.dep.Net.N()
	for _, u := range m.Nodes {
		if u < 0 || int(u) >= n {
			return false, fmt.Errorf("serve: node out of range [0,%d): %d", n, u)
		}
	}
	for _, mv := range m.Moves {
		if mv.Node < 0 || int(mv.Node) >= n {
			return false, fmt.Errorf("serve: node out of range [0,%d): %d", n, mv.Node)
		}
	}
	eff := m.effective(func(u topo.NodeID) bool { return d.failed[u] })
	if eff.empty() {
		return false, nil
	}
	dirty, err := d.apply(eff)
	if err != nil {
		return false, err
	}

	ev := obs.Event{
		UnixMS:     time.Now().UnixMilli(),
		Kind:       mutationEvents[m.Kind],
		Deployment: d.name,
		RequestID:  requestID,
		Nodes:      len(m.Nodes) + len(m.Moves),
		Dirty:      len(dirty),
	}
	start := time.Now()
	var spans core.SubstrateTimings
	if m.Kind == MutationMove {
		spans = core.RepairSubstratesMoved(d.model, d.bounds, d.planarg, dirty)
	} else {
		spans = core.RepairSubstrates(d.model, d.bounds, d.planarg, dirty)
	}
	d.repairs.Add(1)
	s.so.observeSubstrates(spans)
	s.so.repairDur.With(d.name, "repair").Observe(time.Since(start).Microseconds())
	ev.DurationUS = time.Since(start).Microseconds()
	ev.SafetyUS = spans.Safety.Microseconds()
	ev.BoundUS = spans.Bound.Microseconds()
	ev.PlanarUS = spans.Planar.Microseconds()
	ev.Epoch = d.epoch.Add(1)
	if s.cache != nil {
		ev.Purged = s.cache.purgeDeployment(d.id)
	}
	s.journal.Record(ev)
	s.mutated[m.Kind].Add(int64(len(eff.Nodes) + len(eff.Moves)))
	return true, nil
}

// apply writes a mutation onto the deployment's network and its
// portable churn record (the dead set and last positions) without
// repairing substrates, returning the dirty set a repair must cover.
// Callers hold the write lock: mutateLocked, and the restore replay in
// ensureBuilt, which builds the substrates from scratch afterwards.
func (d *deployment) apply(m Mutation) ([]topo.NodeID, error) {
	net := d.dep.Net
	if m.Kind == MutationMove {
		dirty, err := net.SetPositions(m.Moves)
		if err != nil {
			return nil, err
		}
		if d.moved == nil {
			d.moved = make(map[topo.NodeID]topo.Move, len(m.Moves))
		}
		for _, mv := range m.Moves {
			d.moved[mv.Node] = mv
		}
		return dirty, nil
	}
	if d.failed == nil {
		d.failed = make(map[topo.NodeID]bool, len(m.Nodes))
	}
	revive := m.Kind == MutationRevive
	for _, u := range m.Nodes {
		net.SetAlive(u, revive)
		if revive {
			delete(d.failed, u)
		} else {
			d.failed[u] = true
		}
	}
	return m.Nodes, nil
}

// Failed returns the dead nodes of the named deployment, sorted.
func (s *Service) Failed(deployment string) ([]topo.NodeID, error) {
	d, err := s.lookup(deployment)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]topo.NodeID, 0, len(d.failed))
	for u := range d.failed {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// NodeCount returns the node count of the named deployment, building it
// if necessary.
func (s *Service) NodeCount(deployment string) (int, error) {
	d, err := s.lookup(deployment)
	if err != nil {
		return 0, err
	}
	if err := s.ensureBuilt(d); err != nil {
		return 0, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dep.Net.N(), nil
}

// algorithmNames is the served algorithm set in the figure-legend order
// of the facade; an algorithm's index here indexes deployment.routers,
// the per-algorithm metrics and the route cache key.
var algorithmNames = [...]string{"GF", "LGF", "SLGF", "SLGF2", "GPSR", "Ideal-hops", "Ideal-length"}

const numAlgorithms = len(algorithmNames)

// Algorithms lists the algorithm names every deployment serves, in the
// figure-legend order of the facade.
func Algorithms() []string {
	return append([]string(nil), algorithmNames[:]...)
}

// algorithmIndex returns name's index in Algorithms(), or false for an
// unknown algorithm.
func algorithmIndex(name string) (int, bool) {
	for i, a := range algorithmNames {
		if a == name {
			return i, true
		}
	}
	return 0, false
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// ReplicaID identifies the process in a sharded fleet (empty for a
	// standalone server), so aggregated fleet stats stay attributable.
	ReplicaID      string `json:"replica_id,omitempty"`
	Deployments    int    `json:"deployments"`
	Builds         int64  `json:"builds"`
	Routes         int64  `json:"routes"`
	Batches        int64  `json:"batches"`
	FailedNodes    int64  `json:"failed_nodes"`
	RevivedNodes   int64  `json:"revived_nodes"`
	MovedNodes     int64  `json:"moved_nodes"`
	CacheHits      int64  `json:"cache_hits"`
	CacheMisses    int64  `json:"cache_misses"`
	CacheEvictions int64  `json:"cache_evictions"`
	CachePurged    int64  `json:"cache_purged"`
	CacheEntries   int    `json:"cache_entries"`
	// CacheHitRate is hits/(hits+misses), 0 with no lookups yet —
	// derived server-side so load reports need no client math.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// PerDeployment breaks the registry down, sorted by name.
	PerDeployment []DeploymentStats `json:"per_deployment,omitempty"`
}

// DeploymentStats is the per-deployment slice of Stats: the epoch (how
// many topology mutations it absorbed), the current dead-node count,
// and how many incremental repairs served those mutations.
type DeploymentStats struct {
	Name        string `json:"name"`
	Ready       bool   `json:"ready"`
	Epoch       uint64 `json:"epoch"`
	FailedNodes int    `json:"failed_nodes"`
	Repairs     int64  `json:"repairs"`
	// Rebuilds is always 0: every mutation is repaired in place. The
	// field stays on the wire because the frozen BENCH_pr4.json load
	// reports carry it and wasnd -render decodes reports strictly.
	Rebuilds int64 `json:"rebuilds"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deps))
	for _, d := range s.deps {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	st := Stats{
		ReplicaID:    s.cfg.ReplicaID,
		Deployments:  len(deps),
		Builds:       s.builds.Load(),
		Routes:       s.routes.Load(),
		Batches:      s.batches.Load(),
		FailedNodes:  s.mutated[MutationFail].Load(),
		RevivedNodes: s.mutated[MutationRevive].Load(),
		MovedNodes:   s.mutated[MutationMove].Load(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		st.CacheHits = cs.hits
		st.CacheMisses = cs.misses
		st.CacheEvictions = cs.evicted
		st.CachePurged = cs.purged
		st.CacheEntries = s.cache.len()
		if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
			st.CacheHitRate = float64(st.CacheHits) / float64(lookups)
		}
	}
	for _, d := range deps {
		d.mu.RLock()
		failed := len(d.failed)
		d.mu.RUnlock()
		st.PerDeployment = append(st.PerDeployment, DeploymentStats{
			Name:        d.name,
			Ready:       d.ready.Load(),
			Epoch:       d.epoch.Load(),
			FailedNodes: failed,
			Repairs:     d.repairs.Load(),
		})
	}
	sort.Slice(st.PerDeployment, func(i, j int) bool {
		return st.PerDeployment[i].Name < st.PerDeployment[j].Name
	})
	return st
}
