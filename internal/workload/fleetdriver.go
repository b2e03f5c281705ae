package workload

import (
	"fmt"
	"net/http"
	"reflect"
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

// Fleet drives a sharded wasnd fleet. Control-plane calls (deploy,
// fail, revive, move) go through the router, which records them in its
// desired-state table — that is what makes a later re-shard carry the
// churn history. Routes go replica-direct: the driver caches the shard
// map client-side, picks the owner per deployment, and speaks the
// binary batch transport when the owner exposes one (HTTP otherwise).
// When a replica dies mid-run the driver re-fetches the map and retries
// against the new owner until fleetRetryWindow expires, so a kill -9
// shows up as a latency blip, not an error burst — the property the
// fleet-chaos CI job gates on.
type Fleet struct {
	routerURL string
	hc        *http.Client

	mu    sync.RWMutex
	m     *fleet.Map
	pools map[string]*binPool // replica ID → binary conn pool
}

// NewFleet builds a fleet driver against a router base URL.
func NewFleet(routerURL string) (*Fleet, error) {
	d := &Fleet{
		routerURL: strings.TrimRight(routerURL, "/"),
		hc:        newHTTPClient(),
		pools:     make(map[string]*binPool),
	}
	if err := d.refreshMap(); err != nil {
		return nil, err
	}
	return d, nil
}

// Name implements Driver.
func (d *Fleet) Name() string { return "fleet" }

// refreshMap re-fetches the shard map from the router and prunes
// binary pools for replicas that left.
func (d *Fleet) refreshMap() error {
	var m fleet.Map
	if err := getJSON(d.hc, d.routerURL+"/shardmap", &m); err != nil {
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

// owner resolves the current owner of a deployment.
func (d *Fleet) owner(deployment string) (fleet.Replica, error) {
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
func (d *Fleet) pool(rep fleet.Replica) *binPool {
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
		strings.Contains(msg, "unknown algorithm") ||
		strings.Contains(msg, "must differ")
}

// Route implements Driver: owner lookup, one transport exchange, and
// retry-with-remap on anything that smells like a dead or re-homed
// replica.
func (d *Fleet) Route(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error) {
	deadline := time.Now().Add(fleetRetryWindow)
	var lastErr error
	for attempt := 0; ; attempt++ {
		out, err := d.routeOnce(deployment, algorithm, src, dst)
		if err == nil {
			return out, nil
		}
		if permanentRouteErr(err.Error()) {
			return Outcome{}, err
		}
		lastErr = err
		if time.Now().After(deadline) {
			return Outcome{}, fmt.Errorf("workload: fleet route gave up after remaps: %w", lastErr)
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

func (d *Fleet) routeOnce(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error) {
	rep, err := d.owner(deployment)
	if err != nil {
		return Outcome{}, err
	}
	req := serve.RouteRequest{Deployment: deployment, Algorithm: algorithm, Src: src, Dst: dst}
	if rep.BinaryAddr != "" {
		res, err := d.pool(rep).batch([]serve.RouteRequest{req})
		if err != nil {
			return Outcome{}, err
		}
		if res[0].Err != "" {
			return Outcome{}, fmt.Errorf("workload: fleet route: %s", res[0].Err)
		}
		return Outcome{Delivered: res[0].Delivered, Hops: res[0].Hops, Cached: res[0].Cached}, nil
	}
	var resp serve.RouteResponse
	if err := postJSON(d.hc, rep.Addr+"/route", req, &resp); err != nil {
		return Outcome{}, err
	}
	if resp.Err != "" {
		return Outcome{}, fmt.Errorf("workload: fleet route: %s", resp.Err)
	}
	return Outcome{Delivered: resp.Delivered, Hops: resp.Hops, Cached: resp.Cached}, nil
}

// control POSTs a control-plane request to the router with a short
// retry (the router itself is not expected to die in a chaos drill,
// but a transient accept backlog should not kill a run).
func (d *Fleet) control(path string, req, out any) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := postJSON(d.hc, d.routerURL+path, req, out); err != nil {
			lastErr = err
			time.Sleep(time.Duration(100*(attempt+1)) * time.Millisecond)
			continue
		}
		return nil
	}
	return lastErr
}

// Deploy implements Driver (via the router, so the desired-state table
// learns the spec).
func (d *Fleet) Deploy(name string, spec DeploymentSpec) (string, error) {
	var resp deployResponse
	err := d.control("/deploy", deployRequest(name, spec), &resp)
	return resp.Name, err
}

// Mutate implements Driver (via the router, so the desired-state
// table folds the change).
func (d *Fleet) Mutate(deployment string, m serve.Mutation) error {
	return d.control("/"+m.Kind.String(), m.Request(deployment), nil)
}

// Stats implements Driver by summing every numeric counter across the
// alive replicas (reflection over serve.Stats keeps the aggregation in
// sync with fields added later). ReplicaID is left empty: the numbers
// are fleet-wide.
func (d *Fleet) Stats() (serve.Stats, error) {
	d.mu.RLock()
	m := d.m
	d.mu.RUnlock()
	var agg serve.Stats
	av := reflect.ValueOf(&agg).Elem()
	for _, rep := range m.Replicas {
		var st serve.Stats
		if err := getJSON(d.hc, rep.Addr+"/stats", &st); err != nil {
			continue // dead replica mid-scrape: aggregate the rest
		}
		sv := reflect.ValueOf(st)
		for i := 0; i < sv.NumField(); i++ {
			f := av.Field(i)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + sv.Field(i).Int())
			case reflect.Float64:
				f.SetFloat(f.Float() + sv.Field(i).Float())
			}
		}
	}
	return agg, nil
}

// ScrapeMetrics implements Driver: per-replica series summed across
// the fleet, merged with the router's wasn_fleet_* series (distinct
// names, so the merge is collision-free).
func (d *Fleet) ScrapeMetrics() (map[string]float64, error) {
	d.mu.RLock()
	m := d.m
	d.mu.RUnlock()
	out := make(map[string]float64)
	for _, rep := range m.Replicas {
		resp, err := d.hc.Get(rep.Addr + "/metrics")
		if err != nil {
			continue
		}
		vals, err := obs.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			out[k] += v
		}
	}
	resp, err := d.hc.Get(d.routerURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("workload: router metrics: %w", err)
	}
	defer resp.Body.Close()
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, err
	}
	for k, v := range vals {
		out[k] += v
	}
	return out, nil
}

// Timeline implements Driver. A fleet has one flight recorder per
// replica; there is no single merged window, so the report embeds none.
func (d *Fleet) Timeline() (obs.TimelineWindow, error) {
	return obs.TimelineWindow{}, nil
}

// Events implements Driver with the router's control-plane journal —
// the joins, leaves, re-shards, and restore pushes of the run.
func (d *Fleet) Events(max int) ([]obs.Event, error) {
	return getEvents(d.hc, d.routerURL, max)
}

// Close implements Driver.
func (d *Fleet) Close() error {
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
