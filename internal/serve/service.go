package serve

import (
	"errors"
	"fmt"
	"maps"
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
	// TraceSampleEvery records a decision trace for every N-th computed
	// route into the trace ring (GET /traces). 0 disables sampling;
	// explicit trace:true requests are always traced.
	TraceSampleEvery int
	// StretchSampleEvery measures hop stretch (algorithm hops versus
	// the minimum-hop ideal) for every N-th computed route. Each sample
	// pays one reference BFS route. 0 disables the measurement.
	StretchSampleEvery int
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

// journalSize is the event journal's ring capacity, fixed at
// construction. The journal is always on and written only on topology
// changes and builds.
const journalSize = 1024

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

	// journal is the bounded ring of structural events (GET /events).
	journal *obs.Journal

	// deps is the registry, a copy-on-write map republished under mu
	// (which only Deploy takes), so a lookup is one atomic load.
	mu   sync.Mutex
	deps atomic.Pointer[map[string]*deployment]

	// The service counters are obs collectors registered with the
	// service registry: Stats and the /metrics exposition read the same
	// atomics, so the two views cannot disagree.
	builds  *obs.Counter
	batches *obs.Counter
	// mutated counts the nodes each Mutation kind changed.
	mutated [MutationMove + 1]*obs.Counter
}

// New builds a Service.
func New(cfg Config) *Service {
	s := &Service{
		cfg: cfg,
		so:  newServiceObs(cfg),
		builds: obs.NewCounter("wasn_substrate_builds_total",
			"Full substrate builds performed (lazy first-use builds)."),
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
	s.deps.Store(&map[string]*deployment{})
	s.so.reg.MustRegister(s.builds, s.batches,
		s.mutated[MutationFail], s.mutated[MutationRevive], s.mutated[MutationMove])
	s.so.reg.MustRegister(
		obs.NewFunc("wasn_deployments", "Registered deployments.", obs.KindGauge,
			func() float64 { return float64(len(*s.deps.Load())) }),
		obs.NewFunc("wasn_routes_total", "Route queries answered, cached or computed.", obs.KindCounter,
			func() float64 { return float64(s.routes()) }))
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
				"Stale route cache entries (an older epoch of the putting deployment) reclaimed by puts.", obs.KindCounter,
				func() float64 { return float64(s.cache.stats().purged) }),
			obs.NewFunc("wasn_route_cache_entries",
				"Live route cache entries.", obs.KindGauge,
				func() float64 { return float64(s.cache.len()) }),
		)
	}
	if s.cfg.Workers <= 0 {
		s.cfg.Workers = runtime.NumCPU()
	}
	s.journal = obs.NewJournal(journalSize)
	return s
}

// Registry exposes the service's metric registry so embedders (wasnd)
// can serve the text exposition and register process-level collectors
// alongside the service families.
func (s *Service) Registry() *obs.Registry { return s.so.reg }

// Traces returns the sampled decision traces currently buffered,
// newest first (see Config.TraceSampleEvery).
func (s *Service) Traces() []TraceRecord { return s.so.ring.snapshot() }

// deployment is one registry entry: a static header plus the current
// version. A reader loads cur once and answers from that version
// without a lock. The writers — the lazy first build, Mutate and
// RestoreState — are serialized by wmu, never touch a published
// version, and publish a new one with a single Store.
type deployment struct {
	name string
	spec Spec
	// id is the deployment's registry index, assigned once at Deploy
	// (deployments are never removed); it keys the route cache.
	id uint32

	cur atomic.Pointer[version] // nil until the first build
	// pending, set by RestoreState before the first build, is the state
	// that build replays; once cur is set it is never read again.
	pending atomic.Pointer[DeploymentState]
	wmu     sync.Mutex
	// repairs counts the topology mutations repaired, exported per
	// deployment in Stats so workload reports need no client-side math.
	repairs atomic.Int64
}

// version is one built state of a deployment: the network, the three
// substrates, the routers over them, and the portable state (epoch,
// dead set, moved positions) they realize. Nothing writes to a version
// once it is published, so any number of readers may route on it while
// a writer builds its successor.
type version struct {
	net     *topo.Network
	model   *safety.Model
	bounds  *bound.Boundaries
	planarg *planar.Graph
	routers [numAlgorithms]core.Router
	state   DeploymentState
}

// clone copies v's network and substrates for a writer to mutate and
// repair in place; publish builds the clone's routers.
func (v *version) clone() *version {
	net := v.net.Clone()
	return &version{net: net, model: v.model.Clone(net), bounds: v.bounds.Clone(net),
		planarg: v.planarg.Clone(net), state: v.state}
}

// repair brings a mutated clone's substrates up to date with its
// network over the dirty set of the mutation.
func (v *version) repair(kind MutationKind, dirty []topo.NodeID) core.SubstrateTimings {
	if kind == MutationMove {
		return core.RepairSubstratesMoved(v.model, v.bounds, v.planarg, dirty)
	}
	return core.RepairSubstrates(v.model, v.bounds, v.planarg, dirty)
}

// publish builds v's routers and makes v the version every later read
// of d answers from. The caller holds d.wmu.
func (d *deployment) publish(v *version) {
	v.routers = buildRouters(v.net, v.model, v.bounds, v.planarg)
	d.cur.Store(v)
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
	deps := *s.deps.Load()
	if d, ok := deps[name]; ok {
		if d.spec != spec {
			return "", false, fmt.Errorf("serve: deployment %q already registered with spec %+v", name, d.spec)
		}
		return name, false, nil
	}
	next := maps.Clone(deps)
	next[name] = &deployment{name: name, spec: spec, id: uint32(len(deps))}
	s.deps.Store(&next)
	return name, true, nil
}

// Deployments lists the registered deployment names, sorted.
func (s *Service) Deployments() []string {
	deps := *s.deps.Load()
	names := make([]string, 0, len(deps))
	for name := range deps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// deployments returns the registered deployments in no particular order.
func (s *Service) deployments() []*deployment {
	deps := *s.deps.Load()
	out := make([]*deployment, 0, len(deps))
	for _, d := range deps {
		out = append(out, d)
	}
	return out
}

func (s *Service) lookup(name string) (*deployment, error) {
	d := (*s.deps.Load())[name]
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
	_, err = s.ensureBuilt(d)
	return err
}

// ensureBuilt returns d's current version, building the first one if
// d has none yet.
func (s *Service) ensureBuilt(d *deployment) (*version, error) {
	if v := d.cur.Load(); v != nil {
		return v, nil
	}
	err := s.flight.Do(d.name, func() error {
		d.wmu.Lock()
		defer d.wmu.Unlock()
		if d.cur.Load() != nil { // lost a forget/retry race; already built
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
		v := &version{net: dep.Net, state: DeploymentState{Name: d.name, Spec: d.spec}}
		if rs := d.pending.Load(); rs != nil {
			// Restored deployment: replay the snapshot's positions and
			// dead set onto the pristine network now, so the from-scratch
			// build below runs over the origin's exact topology. Repair
			// and rebuild are differentially pinned equal, so the
			// resulting routes are bit-identical to the origin's.
			for _, m := range []Mutation{{Kind: MutationMove, Moves: rs.Moved}, {Kind: MutationFail, Nodes: rs.Failed}} {
				if _, err := applyTo(v.net, v.state.apply(m)); err != nil {
					return fmt.Errorf("serve: restoring deployment %q: %w: %w", d.name, ErrBuild, err)
				}
			}
			v.state.Epoch = rs.Epoch
		}
		// The three substrates — safety model, BOUNDHOLE boundaries,
		// Gabriel graph — build concurrently (each also internally
		// parallel over GOMAXPROCS); the router set shares them.
		v.model, v.bounds, v.planarg = core.BuildSubstrates(v.net, true, true, true, nil)
		d.publish(v)
		s.builds.Inc()
		s.so.buildDur.With(d.name).Observe(time.Since(start).Microseconds())
		s.journal.Record(obs.Event{
			UnixMS:     time.Now().UnixMilli(),
			Kind:       obs.EventBuild,
			Deployment: d.name,
			Nodes:      d.spec.N,
			DurationUS: time.Since(start).Microseconds(),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d.cur.Load(), nil
}

// buildRouters constructs the full router set over a network, indexed
// like algorithmNames and mirroring the facade's Sim (wasn.NewSim)
// algorithm table.
func buildRouters(net *topo.Network, m *safety.Model, b *bound.Boundaries, g *planar.Graph) [numAlgorithms]core.Router {
	return [numAlgorithms]core.Router{
		core.NewGF(net, b),
		core.NewLGF(net),
		core.NewSLGF(net, m),
		core.NewSLGF2(net, m, core.WithPlanarGraph(g)),
		core.NewGPSR(net, g),
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
	var res core.Result
	cached, _, err := s.route(&res, deployment, algorithm, src, dst, nil, false, nil)
	return res, cached, err
}

// RouteTraced computes one route (bypassing the cache read; the result
// is still cached) and returns the hop-by-hop decision trace alongside
// the result — the service method behind /route with trace:true.
func (s *Service) RouteTraced(deployment, algorithm string, src, dst topo.NodeID) (core.Result, TraceRecord, error) {
	res, tr, _, err := s.routeTraced(deployment, algorithm, src, dst)
	return res, tr, err
}

// routeTraced is RouteTraced also returning the epoch of the version
// that answered.
func (s *Service) routeTraced(deployment, algorithm string, src, dst topo.NodeID) (core.Result, TraceRecord, uint64, error) {
	rec := trace.Acquire()
	defer trace.Release(rec)
	var res core.Result
	_, epoch, err := s.route(&res, deployment, algorithm, src, dst, nil, true, rec)
	if err != nil {
		return core.Result{}, TraceRecord{}, 0, err
	}
	s.so.traces.Inc()
	return res, buildTraceRecord(deployment, algorithm, src, dst, res, rec), epoch, nil
}

// route is the single-route path behind Route and the HTTP handlers:
// it resolves the deployment's current version, answers from it into
// *res (routeOn), and returns whether the cache answered and that
// version's epoch.
func (s *Service) route(res *core.Result, deployment, algorithm string, src, dst topo.NodeID, pathBuf []topo.NodeID, skipCacheRead bool, rec *trace.Recorder) (bool, uint64, error) {
	d, err := s.lookup(deployment)
	if err != nil {
		return false, 0, err
	}
	ai, err := d.check(algorithm, src, dst)
	if err != nil {
		return false, 0, err
	}
	v, err := s.ensureBuilt(d)
	if err != nil {
		return false, 0, err
	}
	return s.routeOn(res, d, v, ai, src, dst, pathBuf, skipCacheRead, rec), v.state.Epoch, nil
}

// check validates a query before anything is built — a garbage request
// must not trigger the expensive lazy substrate build; the node range
// is known from the spec alone — and returns the algorithm's index.
func (d *deployment) check(algorithm string, src, dst topo.NodeID) (int, error) {
	if src < 0 || dst < 0 || int(src) >= d.spec.N || int(dst) >= d.spec.N {
		return 0, fmt.Errorf("serve: node out of range [0,%d): src=%d dst=%d", d.spec.N, src, dst)
	}
	ai, ok := algorithmIndex(algorithm)
	if !ok {
		return 0, fmt.Errorf("serve: unknown algorithm %q (want one of %v)", algorithm, Algorithms())
	}
	return ai, nil
}

// routeOn answers one checked query from version v of d into *res,
// consulting the cache first, and reports whether the cache answered.
// The cache key carries v's epoch, so an entry always matches the
// topology it was computed on, however many versions have been
// published since. pathBuf, when non-nil, is handed to
// Router.RouteInto so the traveled path is appended into it (batch
// workers pass one reusable buffer each, making a warm batch
// allocation-free per route). skipCacheRead bypasses the cache lookup
// — for callers that need the full path even for cached pairs — while
// still caching the computed result for later pathless readers. rec,
// when non-nil, receives every forwarding decision of the computed
// route (callers passing rec also pass skipCacheRead, since a cache
// hit computes no hops to observe).
func (s *Service) routeOn(res *core.Result, d *deployment, v *version, ai int, src, dst topo.NodeID, pathBuf []topo.NodeID, skipCacheRead bool, rec *trace.Recorder) bool {
	key := cacheKey{epoch: v.state.Epoch, src: src, dst: dst, dep: d.id, alg: uint32(ai)}
	if s.cache != nil && !skipCacheRead && s.cache.get(key, res) {
		return true
	}
	r := v.routers[ai]
	switch {
	case rec != nil:
		*res = routeObserved(r, src, dst, pathBuf, rec)
	case s.so.sampleTrace():
		srec := trace.Acquire()
		*res = routeObserved(r, src, dst, pathBuf, srec)
		s.so.ring.push(buildTraceRecord(d.name, algorithmNames[ai], src, dst, *res, srec))
		s.so.traces.Inc()
		trace.Release(srec)
	default:
		*res = r.RouteInto(src, dst, pathBuf)
	}
	s.so.recordComputed(ai, *res)
	if res.Delivered && !isIdealAlgorithm(algorithmNames[ai]) && s.so.sampleStretch() {
		// One pathless reference BFS per sample (pooled scratch, no
		// route materialized — the comparison only needs the count),
		// on the same version. Its cost lands in the dedicated duration
		// series.
		start := time.Now()
		ihops := topo.HopCount(v.net, src, dst)
		s.so.stretchDur.Observe(time.Since(start).Microseconds())
		if ihops > 0 {
			s.so.observeStretch(ai, res.Hops(), ihops)
		}
	}
	if s.cache != nil {
		// put strips the path, so caching never retains pathBuf.
		s.cache.put(key, *res)
	}
	return false
}

// routes is the number of route queries answered: every cache hit plus
// every computed route, delivered or dropped.
func (s *Service) routes() int64 {
	n := s.so.computed()
	if s.cache != nil {
		n += s.cache.stats().hits
	}
	return n
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
// it. Under the deployment's writer lock it range-checks every node and
// folds the mutation into a copy of the current version's state with
// the fold the fleet router uses (DeploymentState.Apply); a no-op
// returns without touching anything. Otherwise it clones the network
// and the substrates, applies the change to the clone, repairs the
// clone's substrates in place, builds routers over it and publishes it
// as the new version with one atomic store, then journals the event
// under requestID (empty for untagged callers).
//
// Readers never wait: until the store they keep answering from the
// previous version, and the epoch bump in the new state makes every
// route cached under the old epoch unreachable to later readers. The
// repair is incremental — core.RepairSubstrates for liveness changes,
// core.RepairSubstratesMoved over the geometric dirty set of a move —
// and each repaired substrate is identical to a from-scratch build over
// the mutated topology, so every router serves exactly what a fresh Sim
// would.
func (s *Service) Mutate(deployment string, m Mutation, requestID string) error {
	if m.Kind < MutationFail || m.Kind > MutationMove {
		return fmt.Errorf("serve: unknown mutation kind %v", m.Kind)
	}
	d, err := s.lookup(deployment)
	if err != nil {
		return err
	}
	if _, err := s.ensureBuilt(d); err != nil {
		return err
	}
	d.wmu.Lock()
	changed, _, err := s.mutateLocked(d, m, requestID)
	d.wmu.Unlock()
	if changed {
		s.notifyState()
	}
	return err
}

// mutationStages splits the time of one applied mutation into its
// steps in Mutate: the state fold, the clone of network and substrates,
// the change applied to the clone's network, the substrate repair and
// the publish (router set and store).
type mutationStages struct {
	fold, clone, apply, repair, publish time.Duration
}

// mutateLocked is the body of Mutate, run under the deployment's writer
// lock. It reports whether the topology changed and, if it did, where
// the time went.
func (s *Service) mutateLocked(d *deployment, m Mutation, requestID string) (bool, mutationStages, error) {
	var st mutationStages
	old := d.cur.Load()
	n := old.net.N()
	for _, u := range m.Nodes {
		if u < 0 || int(u) >= n {
			return false, st, fmt.Errorf("serve: node out of range [0,%d): %d", n, u)
		}
	}
	for _, mv := range m.Moves {
		if mv.Node < 0 || int(mv.Node) >= n {
			return false, st, fmt.Errorf("serve: node out of range [0,%d): %d", n, mv.Node)
		}
	}
	t0 := time.Now()
	state := old.state
	eff := state.apply(m)
	if eff.empty() {
		return false, st, nil
	}
	start := time.Now()
	v := old.clone()
	v.state = state
	t2 := time.Now()
	dirty, err := applyTo(v.net, eff)
	if err != nil {
		return false, st, err
	}
	t3 := time.Now()
	spans := v.repair(m.Kind, dirty)
	t4 := time.Now()
	d.publish(v)
	st = mutationStages{fold: start.Sub(t0), clone: t2.Sub(start), apply: t3.Sub(t2), repair: t4.Sub(t3), publish: time.Since(t4)}
	d.repairs.Add(1)
	elapsed := time.Since(start).Microseconds()
	s.so.observeSubstrates(spans)
	s.so.repairDur.With(d.name).Observe(elapsed)
	s.journal.Record(obs.Event{
		UnixMS:     time.Now().UnixMilli(),
		Kind:       mutationEvents[m.Kind],
		Deployment: d.name,
		RequestID:  requestID,
		Nodes:      len(m.Nodes) + len(m.Moves),
		Dirty:      len(dirty),
		Epoch:      state.Epoch,
		DurationUS: elapsed,
		SafetyUS:   spans.Safety.Microseconds(),
		BoundUS:    spans.Bound.Microseconds(),
		PlanarUS:   spans.Planar.Microseconds(),
	})
	s.mutated[m.Kind].Add(int64(len(eff.Nodes) + len(eff.Moves)))
	return true, st, nil
}

// applyTo writes an effective mutation onto a network without
// repairing substrates, returning the dirty set a repair must cover.
// Its callers own net: mutateLocked a fresh clone, the first build the
// pristine network it is about to build on.
func applyTo(net *topo.Network, m Mutation) ([]topo.NodeID, error) {
	if m.Kind == MutationMove {
		return net.SetPositions(m.Moves)
	}
	for _, u := range m.Nodes {
		net.SetAlive(u, m.Kind == MutationRevive)
	}
	return m.Nodes, nil
}

// Failed returns the dead nodes of the named deployment, sorted.
func (s *Service) Failed(deployment string) ([]topo.NodeID, error) {
	d, err := s.lookup(deployment)
	if err != nil {
		return nil, err
	}
	out := []topo.NodeID{}
	if v := d.cur.Load(); v != nil {
		out = append(out, v.state.Failed...)
	}
	return out, nil
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
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	deps := s.deployments()
	st := Stats{
		ReplicaID:    s.cfg.ReplicaID,
		Deployments:  len(deps),
		Builds:       s.builds.Load(),
		Routes:       s.routes(),
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
		ds := DeploymentStats{Name: d.name, Repairs: d.repairs.Load()}
		if v := d.cur.Load(); v != nil {
			ds.Ready, ds.Epoch, ds.FailedNodes = true, v.state.Epoch, len(v.state.Failed)
		}
		st.PerDeployment = append(st.PerDeployment, ds)
	}
	sort.Slice(st.PerDeployment, func(i, j int) bool {
		return st.PerDeployment[i].Name < st.PerDeployment[j].Name
	})
	return st
}
