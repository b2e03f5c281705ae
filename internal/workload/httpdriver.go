package workload

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/straightpath/wasn/internal/fleet"
	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// fleetRetryWindow bounds how long a route retries through remaps
// before giving up. It must comfortably cover a replica death: two
// missed 500ms health probes plus the restore push plus one map fetch.
const fleetRetryWindow = 10 * time.Second

// fleetBinaryConns is the binary-connection pool size per replica. The
// engine's workers share the pool round-robin; each conn serialises one
// exchange at a time.
const fleetBinaryConns = 8

// HTTP drives wasnd over its JSON API — the service measured over a
// real wire. Deploy, fail, revive and move always go to the target,
// and so do Events.
//
// Built by NewHTTP, the driver sends every call to the target: a wasnd,
// or a fleet router's proxy tier, which speaks the same API.
//
// Built by NewFleet against a fleet router, it also holds the router's
// shard map. Control calls still go through the router, whose
// desired-state table must learn them so a later re-shard carries the
// churn history. Routes go replica-direct: the driver picks the owner
// per deployment and speaks the binary batch transport when the owner
// exposes one (JSON otherwise). When a replica dies mid-run the driver
// re-fetches the map and retries against the new owner until
// fleetRetryWindow expires, so a kill -9 shows up as a latency blip,
// not an error burst — the property the fleet-chaos CI job gates on.
// Stats are summed across the replicas.
type HTTP struct {
	base    string
	hc      *http.Client
	sharded bool // built by NewFleet: routes follow the shard map

	mu    sync.RWMutex
	m     *fleet.Map          // the shard map; nil unless sharded
	pools map[string]*binPool // replica ID → binary conn pool
}

// NewHTTP builds an HTTP driver against a wasnd base URL, e.g.
// "http://localhost:8080".
func NewHTTP(base string) *HTTP {
	// The transport keeps connections alive and allows enough idle
	// connections per host that every engine worker reuses its own
	// (connection churn would otherwise dominate small-request latency).
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTP{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		pools: make(map[string]*binPool),
	}
}

// NewFleet builds an HTTP driver against a fleet router base URL that
// routes replica-direct by the router's shard map, fetched here.
func NewFleet(routerURL string) (*HTTP, error) {
	d := NewHTTP(routerURL)
	d.sharded = true
	if err := d.refreshMap(); err != nil {
		return nil, err
	}
	return d, nil
}

// Name implements Driver.
func (d *HTTP) Name() string {
	if d.sharded {
		return "fleet"
	}
	return "http"
}

// refreshMap re-fetches the shard map from the router and prunes
// binary pools for replicas that left.
func (d *HTTP) refreshMap() error {
	var m fleet.Map
	if err := serve.GetJSON(d.hc, d.base+"/shardmap", &m); err != nil {
		return fmt.Errorf("workload: fleet shard map: %w", err)
	}
	m.Build()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m = &m
	alive := make(map[string]bool, len(m.Replicas))
	for _, r := range m.Replicas {
		alive[r.ID] = true
	}
	for id, p := range d.pools {
		if !alive[id] {
			p.closeAll()
			delete(d.pools, id)
		}
	}
	return nil
}

// replicaAddrs returns the base URLs of the shard map's replicas (none
// without a shard map).
func (d *HTTP) replicaAddrs() []string {
	d.mu.RLock()
	m := d.m
	d.mu.RUnlock()
	if m == nil {
		return nil
	}
	addrs := make([]string, len(m.Replicas))
	for i, rep := range m.Replicas {
		addrs[i] = rep.Addr
	}
	return addrs
}

// owner resolves the current owner of a deployment.
func (d *HTTP) owner(deployment string) (fleet.Replica, error) {
	d.mu.RLock()
	m := d.m
	d.mu.RUnlock()
	rep, ok := m.Owner(deployment)
	if !ok {
		return fleet.Replica{}, fmt.Errorf("workload: fleet has no alive replicas")
	}
	return rep, nil
}

// pool returns the binary connection pool for a replica.
func (d *HTTP) pool(rep fleet.Replica) *binPool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.pools[rep.ID]
	if !ok || p.addr != rep.BinaryAddr {
		if ok {
			p.closeAll()
		}
		p = newBinPool(rep.BinaryAddr, fleetBinaryConns)
		d.pools[rep.ID] = p
	}
	return p
}

// permanentRouteErr reports request errors no remap can fix; the
// retry loop fails fast on these instead of burning the window.
func permanentRouteErr(msg string) bool {
	return strings.Contains(msg, "out of range") ||
		strings.Contains(msg, "unknown algorithm")
}

// Route implements Driver. With a shard map it resolves the owner, runs
// one exchange, and retries with a remap on anything that smells like
// a dead or re-homed replica.
func (d *HTTP) Route(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error) {
	req := serve.RouteRequest{Deployment: deployment, Algorithm: algorithm, Src: src, Dst: dst}
	if !d.sharded {
		return d.routeJSON(d.base, req)
	}
	deadline := time.Now().Add(fleetRetryWindow)
	for attempt := 0; ; attempt++ {
		out, err := d.routeOwner(req)
		if err == nil || permanentRouteErr(err.Error()) {
			return out, err
		}
		if time.Now().After(deadline) {
			return Outcome{}, fmt.Errorf("workload: fleet route gave up after remaps: %w", err)
		}
		// Re-resolve: the owner may have died (transport error) or the
		// map may have moved the deployment (unknown-deployment error).
		_ = d.refreshMap()
		sleep := time.Duration(50*(attempt+1)) * time.Millisecond
		if sleep > 500*time.Millisecond {
			sleep = 500 * time.Millisecond
		}
		time.Sleep(sleep)
	}
}

// routeOwner routes one request on its owner's binary transport, or
// over JSON when the owner exposes none.
func (d *HTTP) routeOwner(req serve.RouteRequest) (Outcome, error) {
	rep, err := d.owner(req.Deployment)
	if err != nil {
		return Outcome{}, err
	}
	if rep.BinaryAddr == "" {
		return d.routeJSON(rep.Addr, req)
	}
	res, err := d.pool(rep).batch([]serve.RouteRequest{req})
	if err != nil {
		return Outcome{}, err
	}
	return outcome(res[0])
}

// routeJSON is one POST /route exchange with base.
func (d *HTTP) routeJSON(base string, req serve.RouteRequest) (Outcome, error) {
	var resp serve.RouteResponse
	if err := serve.PostJSON(d.hc, base+"/route", req, &resp); err != nil {
		return Outcome{}, err
	}
	return outcome(resp)
}

// outcome converts one route answer; an answer carrying an error is a
// failed request.
func outcome(r serve.RouteResponse) (Outcome, error) {
	if r.Err != "" {
		return Outcome{}, fmt.Errorf("workload: route: %s", r.Err)
	}
	return Outcome{Delivered: r.Delivered, Hops: r.Hops, Cached: r.Cached}, nil
}

// control POSTs a control-plane call to the target. A 4xx answer
// returns at once; a transport error or a 5xx gets up to three tries,
// so a transient accept backlog does not kill a run.
func (d *HTTP) control(path string, req, out any) error {
	for attempt := 1; ; attempt++ {
		err := serve.PostJSON(d.hc, d.base+path, req, out)
		if err == nil || !serve.Retryable(err) || attempt == 3 {
			return err
		}
		time.Sleep(time.Duration(100*attempt) * time.Millisecond)
	}
}

// Deploy implements Driver; it asks the server to build the substrates
// before answering.
func (d *HTTP) Deploy(name string, spec DeploymentSpec) (string, error) {
	var resp serve.DeployResponse
	err := d.control("/deploy", serve.DeployRequest{
		Name: name, Model: spec.Model, N: spec.N, Seed: spec.Seed,
		Coverage: spec.Coverage, Build: true,
	}, &resp)
	return resp.Name, err
}

// Mutate implements Driver (POST /fail, /revive or /move).
func (d *HTTP) Mutate(deployment string, m serve.Mutation) error {
	return d.control("/"+m.Kind.String(), m.Request(deployment), nil)
}

// Stats implements Driver. With a shard map it sums the counters of
// the replicas that answer (reflection over serve.Stats keeps the sum
// in sync with fields added later), derives the cache hit rate from
// the summed hits and misses, and concatenates the per-deployment
// rows. ReplicaID is left empty: the numbers are fleet-wide.
func (d *HTTP) Stats() (serve.Stats, error) {
	if !d.sharded {
		var st serve.Stats
		err := serve.GetJSON(d.hc, d.base+"/stats", &st)
		return st, err
	}
	var agg serve.Stats
	av := reflect.ValueOf(&agg).Elem()
	lastErr := errors.New("workload: the shard map lists no replicas")
	answered := 0
	for _, addr := range d.replicaAddrs() {
		var st serve.Stats
		if err := serve.GetJSON(d.hc, addr+"/stats", &st); err != nil {
			lastErr = err // dead replica mid-scrape: aggregate the rest
			continue
		}
		answered++
		sv := reflect.ValueOf(st)
		for i := 0; i < sv.NumField(); i++ {
			if f := av.Field(i); f.Kind() == reflect.Int || f.Kind() == reflect.Int64 {
				f.SetInt(f.Int() + sv.Field(i).Int())
			}
		}
		agg.PerDeployment = append(agg.PerDeployment, st.PerDeployment...)
	}
	if answered == 0 {
		return serve.Stats{}, fmt.Errorf("workload: no replica answered /stats: %w", lastErr)
	}
	if lookups := agg.CacheHits + agg.CacheMisses; lookups > 0 {
		agg.CacheHitRate = float64(agg.CacheHits) / float64(lookups)
	}
	sort.Slice(agg.PerDeployment, func(i, j int) bool {
		return agg.PerDeployment[i].Name < agg.PerDeployment[j].Name
	})
	return agg, nil
}

// Events implements Driver (GET /events) — against a fleet router, its
// control-plane journal: the joins, leaves, re-shards and restore
// pushes of the run.
func (d *HTTP) Events(max int) ([]obs.Event, error) {
	url := d.base + "/events"
	if max > 0 {
		url += fmt.Sprintf("?max=%d", max)
	}
	var body serve.EventsBody
	err := serve.GetJSON(d.hc, url, &body)
	return body.Events, err
}

// Close implements Driver.
func (d *HTTP) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.pools {
		p.closeAll()
	}
	d.pools = map[string]*binPool{}
	d.hc.CloseIdleConnections()
	return nil
}

// binPool is a fixed-size lazily-dialed pool of binary clients to one
// replica. Slots are picked round-robin; a slot whose exchange fails is
// dropped (the next user redials), so one dead conn never poisons the
// pool.
type binPool struct {
	addr string
	next atomic.Uint32
	mu   sync.Mutex
	conn []*fleet.Client
}

func newBinPool(addr string, size int) *binPool {
	return &binPool{addr: addr, conn: make([]*fleet.Client, size)}
}

func (p *binPool) batch(reqs []serve.RouteRequest) ([]serve.RouteResponse, error) {
	i := int(p.next.Add(1)) % len(p.conn)
	p.mu.Lock()
	c := p.conn[i]
	if c == nil {
		var err error
		c, err = fleet.Dial(p.addr, 0)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.conn[i] = c
	}
	p.mu.Unlock()

	res, err := c.Batch(reqs)
	if err != nil {
		p.mu.Lock()
		if p.conn[i] == c {
			p.conn[i] = nil
		}
		p.mu.Unlock()
		c.Close()
		return nil, err
	}
	return res, nil
}

func (p *binPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range p.conn {
		if c != nil {
			c.Close()
			p.conn[i] = nil
		}
	}
}
