package serve

import (
	"sync"
	"sync/atomic"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/topo"
)

// RouteRequest is one query of a batch (and the /route request body).
type RouteRequest struct {
	Deployment string      `json:"deployment"`
	Algorithm  string      `json:"algorithm"`
	Src        topo.NodeID `json:"src"`
	Dst        topo.NodeID `json:"dst"`
}

// RouteResponse is the outcome of one query. Err is empty on success;
// the routing fields are zero when it is not. Epoch is the epoch of the
// deployment version that answered: the number of topology mutations
// that version had absorbed.
type RouteResponse struct {
	Delivered bool          `json:"delivered"`
	Hops      int           `json:"hops"`
	Length    float64       `json:"length"`
	Reason    string        `json:"reason,omitempty"`
	Cached    bool          `json:"cached"`
	Epoch     uint64        `json:"epoch"`
	Path      []topo.NodeID `json:"path,omitempty"`
	Err       string        `json:"error,omitempty"`
}

// toResponse flattens a core.Result answered at epoch for the wire. The
// path is included only on request: batch consumers usually want the
// aggregate numbers, and paths dominate the payload.
func toResponse(res core.Result, cached, withPath bool, epoch uint64) RouteResponse {
	out := RouteResponse{
		Delivered: res.Delivered,
		Hops:      res.Hops(),
		Length:    res.Length,
		Cached:    cached,
		Epoch:     epoch,
	}
	if !res.Delivered {
		out.Reason = res.Reason.String()
	}
	if withPath {
		out.Path = res.Path
	}
	return out
}

// Batch routes every request and returns the responses in request order.
// The requests fan out across the service worker pool (Config.Workers);
// each worker runs the same cached route path, so a batch warms the
// cache for subsequent traffic and profits from it in turn. Requests
// may mix deployments and algorithms freely. Each deployment a batch
// names is resolved to one version, so every answer for it comes from
// the same topology, whatever mutations land while the batch runs.
//
// Each worker owns one reusable path buffer and routes through
// Router.RouteInto, so a warm batch performs no per-route path
// allocation: cache hits return the stored aggregate outcome, cache
// misses append the traveled path into the worker's buffer (batch
// responses never carry paths, and the cache strips them on insert).
func (s *Service) Batch(reqs []RouteRequest) []RouteResponse {
	s.batches.Inc()
	out := make([]RouteResponse, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	deps := make(map[string]*batchDep)
	for _, q := range reqs {
		if deps[q.Deployment] == nil {
			bd := &batchDep{}
			bd.d, bd.err = s.lookup(q.Deployment)
			deps[q.Deployment] = bd
		}
	}
	workers := s.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			buf := make([]topo.NodeID, 0, 256)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				bd := deps[req.Deployment]
				v, ai, err := s.resolve(bd, req)
				if err != nil {
					out[i] = RouteResponse{Err: err.Error()}
					continue
				}
				var res core.Result
				cached := s.routeOn(&res, bd.d, v, ai, req.Src, req.Dst, buf, false, nil)
				if res.Path != nil {
					// Keep the (possibly grown) buffer for the next route;
					// cache hits return no path and leave buf untouched.
					buf = res.Path[:0]
				}
				out[i] = toResponse(res, cached, false, v.state.Epoch)
			}
		}()
	}
	wg.Wait()
	return out
}

// batchDep is one deployment a batch names, resolved to one version by
// the first of its requests that passes the checks, so that, as for a
// single route, malformed requests alone never trigger the lazy build.
type batchDep struct {
	d    *deployment // nil: err is the unknown-deployment error
	once sync.Once
	v    *version
	err  error
}

// resolve checks req and returns the version answering it and its
// algorithm's index.
func (s *Service) resolve(bd *batchDep, req RouteRequest) (*version, int, error) {
	if bd.d == nil {
		return nil, 0, bd.err
	}
	ai, err := bd.d.check(req.Algorithm, req.Src, req.Dst)
	if err != nil {
		return nil, 0, err
	}
	bd.once.Do(func() { bd.v, bd.err = s.ensureBuilt(bd.d) })
	return bd.v, ai, bd.err
}
