package fleet

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
)

// RouterConfig tunes a Router. The zero value is usable.
type RouterConfig struct {
	// HealthEvery is the probe interval (default 500ms). Zero starts the
	// loop at the default; negative disables it (tests drive CheckHealth
	// directly).
	HealthEvery time.Duration
	// HealthStrikes is the consecutive probe failures that mark a
	// replica dead and trigger a re-shard (default 2).
	HealthStrikes int
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
}

// member is one known replica plus its health bookkeeping.
type member struct {
	rep     Replica
	alive   bool
	strikes int
}

// Router is the fleet control plane and thin data-plane proxy. It owns
// the shard map (membership changes come in via /join and go out via
// re-shards), a desired-state table per deployment (spec + failed +
// moved + epoch — the same portable state serve exports), and proxies
// deployment-scoped requests to the owning replica. The desired-state
// table is what makes kill -9 survivable with no shared disk: when a
// replica dies, the router pushes the dead replica's deployments to
// their new owners via POST /restore, and only then publishes the new
// map version.
type Router struct {
	cfg RouterConfig
	hc  *http.Client

	reg     *obs.Registry
	journal *obs.Journal

	// published is the shard map clients see; swapped atomically only
	// after re-shard state pushes complete.
	published atomic.Pointer[Map]

	// ctrl serialises membership transitions (join, mark-dead): each
	// transition reads the published map, pushes state, then publishes
	// the successor map. mu guards the member and desired tables and is
	// never held across network calls.
	ctrl sync.Mutex
	mu   sync.RWMutex

	members map[string]*member
	desired map[string]*serve.DeploymentState

	reshards  *obs.Counter
	restores  *obs.Counter
	proxied   *obs.Counter
	proxyErrs *obs.Counter
	replicaUp *obs.GaugeVec

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRouter builds a Router and, unless HealthEvery is negative, starts
// its health loop.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 500 * time.Millisecond
	}
	if cfg.HealthStrikes <= 0 {
		cfg.HealthStrikes = 2
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	r := &Router{
		cfg:     cfg,
		hc:      &http.Client{Timeout: 30 * time.Second},
		reg:     obs.NewRegistry(),
		journal: obs.NewJournal(1024),
		members: make(map[string]*member),
		desired: make(map[string]*serve.DeploymentState),
		reshards: obs.NewCounter("wasn_fleet_reshards_total",
			"Shard map versions published after a membership change."),
		restores: obs.NewCounter("wasn_fleet_restores_total",
			"Deployment states pushed to replicas during joins and re-shards."),
		proxied: obs.NewCounter("wasn_fleet_proxied_requests_total",
			"Deployment-scoped requests forwarded to owning replicas."),
		proxyErrs: obs.NewCounter("wasn_fleet_proxy_errors_total",
			"Forwarded requests that failed at the transport (the owner was unreachable)."),
		replicaUp: obs.NewGaugeVec("wasn_fleet_replica_up",
			"Per-replica liveness as seen by the router health loop.", "replica"),
	}
	r.published.Store(NewMap(0, nil, DefaultVNodes))
	r.reg.MustRegister(r.reshards, r.restores, r.proxied, r.proxyErrs, r.replicaUp)
	r.reg.MustRegister(
		obs.NewFunc("wasn_fleet_replicas", "Replicas known to the router (alive or dead).",
			obs.KindGauge, func() float64 {
				r.mu.RLock()
				defer r.mu.RUnlock()
				return float64(len(r.members))
			}),
		obs.NewFunc("wasn_fleet_replicas_alive", "Replicas currently in the shard map.",
			obs.KindGauge, func() float64 {
				r.mu.RLock()
				defer r.mu.RUnlock()
				n := 0
				for _, m := range r.members {
					if m.alive {
						n++
					}
				}
				return float64(n)
			}),
		obs.NewFunc("wasn_fleet_deployments", "Deployments in the desired-state table.",
			obs.KindGauge, func() float64 {
				r.mu.RLock()
				defer r.mu.RUnlock()
				return float64(len(r.desired))
			}),
		obs.NewFunc("wasn_fleet_map_version", "Published shard map version.",
			obs.KindGauge, func() float64 { return float64(r.published.Load().Version) }),
	)
	r.stop = make(chan struct{})
	if cfg.HealthEvery > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r
}

// Close stops the health loop.
func (r *Router) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	return nil
}

// Registry exposes the router's wasn_fleet_* metrics.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Journal exposes the control-plane event journal.
func (r *Router) Journal() *obs.Journal { return r.journal }

// Map returns the published shard map.
func (r *Router) Map() *Map { return r.published.Load() }

func (r *Router) record(kind obs.EventKind, replica, deployment string, nodes int, err error) {
	ev := obs.Event{
		Kind: kind, Replica: replica, Deployment: deployment,
		Nodes: nodes, UnixMS: time.Now().UnixMilli(),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	r.journal.Record(ev)
}

// Join adds (or revives) a replica and publishes a new map version once
// the deployments the newcomer takes over have been pushed to it.
func (r *Router) Join(rep Replica) (*Map, error) {
	if rep.ID == "" || rep.Addr == "" {
		return nil, fmt.Errorf("fleet: join needs id and addr")
	}
	r.ctrl.Lock()
	defer r.ctrl.Unlock()

	old := r.published.Load()
	r.mu.Lock()
	r.members[rep.ID] = &member{rep: rep, alive: true}
	next := r.buildMapLocked(old.Version + 1)
	r.mu.Unlock()

	// Push every deployment whose owner changes to the newcomer before
	// anyone can see the new map. Failures leave the state in the table
	// (the health loop or a later join retries); the map is published
	// regardless, because the newcomer is already the consistent-hash
	// owner and the replica rebuilds from spec on first use — the push
	// is what carries churn history, not existence.
	moved := r.transfers(old, next)
	for id, states := range moved {
		if err := r.pushRestore(id, states); err != nil {
			r.record(obs.EventRestore, id, "", len(states), err)
		} else {
			r.restores.Add(int64(len(states)))
			r.record(obs.EventRestore, id, "", len(states), nil)
		}
	}
	r.published.Store(next)
	r.reshards.Inc()
	r.replicaUp.With(rep.ID).Set(1)
	r.record(obs.EventJoin, rep.ID, "", 0, nil)
	r.record(obs.EventReshard, rep.ID, "", len(moved), nil)
	return next, nil
}

// buildMapLocked derives the next shard map from the alive member set.
// Caller holds mu.
func (r *Router) buildMapLocked(version uint64) *Map {
	alive := make([]Replica, 0, len(r.members))
	for _, m := range r.members {
		if m.alive {
			alive = append(alive, m.rep)
		}
	}
	return NewMap(version, alive, DefaultVNodes)
}

// transfers returns, per gaining replica ID, the deployment states
// whose ownership differs between the two maps.
func (r *Router) transfers(old, next *Map) map[string][]serve.DeploymentState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]serve.DeploymentState)
	for name, st := range r.desired {
		was, hadOld := old.Owner(name)
		now, hasNew := next.Owner(name)
		if !hasNew {
			continue
		}
		if !hadOld || was.ID != now.ID {
			out[now.ID] = append(out[now.ID], *st)
		}
	}
	for id := range out {
		sort.Slice(out[id], func(a, b int) bool { return out[id][a].Name < out[id][b].Name })
	}
	return out
}

// pushRestore POSTs deployment states to a replica's /restore.
func (r *Router) pushRestore(replicaID string, states []serve.DeploymentState) error {
	r.mu.RLock()
	m, ok := r.members[replicaID]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("fleet: unknown replica %q", replicaID)
	}
	if err := serve.PostJSON(r.hc, m.rep.Addr+"/restore", serve.StateBody{States: states}, nil); err != nil {
		return fmt.Errorf("fleet: restore push to %s: %w", replicaID, err)
	}
	return nil
}

// healthLoop probes every alive replica and re-shards around the ones
// that stop answering.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckHealth()
		}
	}
}

// CheckHealth runs one probe round synchronously: every alive replica
// gets a GET /readyz; HealthStrikes consecutive failures trigger
// MarkDead. Exposed for tests and for deterministic chaos drills.
func (r *Router) CheckHealth() {
	r.mu.RLock()
	probes := make([]Replica, 0, len(r.members))
	for _, m := range r.members {
		if m.alive {
			probes = append(probes, m.rep)
		}
	}
	r.mu.RUnlock()

	type verdict struct {
		id string
		ok bool
	}
	results := make(chan verdict, len(probes))
	for _, rep := range probes {
		go func(rep Replica) {
			results <- verdict{rep.ID, r.probe(rep)}
		}(rep)
	}
	var dead []string
	for range probes {
		v := <-results
		r.mu.Lock()
		m, ok := r.members[v.id]
		if !ok || !m.alive {
			r.mu.Unlock()
			continue
		}
		if v.ok {
			m.strikes = 0
			r.mu.Unlock()
			r.replicaUp.With(v.id).Set(1)
			continue
		}
		m.strikes++
		strikes := m.strikes
		r.mu.Unlock()
		r.replicaUp.With(v.id).Set(0)
		if strikes >= r.cfg.HealthStrikes {
			dead = append(dead, v.id)
		}
	}
	sort.Strings(dead)
	for _, id := range dead {
		r.MarkDead(id)
	}
}

func (r *Router) probe(rep Replica) bool {
	req, err := http.NewRequest(http.MethodGet, rep.Addr+"/readyz", nil)
	if err != nil {
		return false
	}
	hc := &http.Client{Timeout: r.cfg.HealthTimeout}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// MarkDead removes a replica from the shard map, pushes its deployments
// to their new owners, then publishes the successor map.
func (r *Router) MarkDead(id string) {
	r.ctrl.Lock()
	defer r.ctrl.Unlock()

	old := r.published.Load()
	r.mu.Lock()
	m, ok := r.members[id]
	if !ok || !m.alive {
		r.mu.Unlock()
		return
	}
	m.alive = false
	next := r.buildMapLocked(old.Version + 1)
	r.mu.Unlock()

	moved := r.transfers(old, next)
	for gainer, states := range moved {
		if err := r.pushRestore(gainer, states); err != nil {
			r.record(obs.EventRestore, gainer, "", len(states), err)
		} else {
			r.restores.Add(int64(len(states)))
			r.record(obs.EventRestore, gainer, "", len(states), nil)
		}
	}
	r.published.Store(next)
	r.reshards.Inc()
	r.replicaUp.With(id).Set(0)
	r.record(obs.EventLeave, id, "", 0, nil)
	r.record(obs.EventReshard, id, "", len(moved), nil)
}

// --- desired-state bookkeeping -------------------------------------

// recordDeploy registers a deployment spec in the desired-state table.
func (r *Router) recordDeploy(name string, spec serve.Spec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.desired[name]; !ok {
		r.desired[name] = &serve.DeploymentState{Name: name, Spec: spec}
	}
}

// recordMutation folds a mutation the owner accepted into the
// desired state. The fold is serve.DeploymentState.Apply, the replica's
// own rule, so the desired epoch tracks the owner's.
func (r *Router) recordMutation(name string, m serve.Mutation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.desired[name]; ok {
		st.Apply(m)
	}
}

// DesiredState returns the desired-state table, sorted by name.
func (r *Router) DesiredState() []serve.DeploymentState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]serve.DeploymentState, 0, len(r.desired))
	for _, st := range r.desired {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
