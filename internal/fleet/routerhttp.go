package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// Handler returns the router's HTTP surface:
//
//	POST /join      {"id", "addr", "binary_addr"?}     → shard map
//	GET  /shardmap                                     → shard map
//	GET  /owner?deployment=NAME                        → owning replica
//	GET  /readyz
//	GET  /stats
//	GET  /metrics                                      → wasn_fleet_* series
//	GET  /events?after=&max=                           → control-plane journal
//	POST /deploy, /route, /batch, /fail, /revive, /move → proxied to the owner
//
// The proxy endpoints speak the exact serve JSON API; a fleet looks
// like one big wasnd to HTTP clients. /batch additionally splits
// mixed-deployment batches across owners and reassembles the results
// in request order.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/join", serve.Only(http.MethodPost, r.handleJoin))
	mux.HandleFunc("/shardmap", serve.Only(http.MethodGet, r.handleShardMap))
	mux.HandleFunc("/owner", serve.Only(http.MethodGet, r.handleOwner))
	mux.HandleFunc("/readyz", r.handleReadyz)
	mux.HandleFunc("/stats", serve.Only(http.MethodGet, r.handleStats))
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/events", r.handleEvents)
	mux.HandleFunc("/deploy", serve.Only(http.MethodPost, r.handleDeploy))
	mux.HandleFunc("/batch", serve.Only(http.MethodPost, r.handleBatch))
	mux.HandleFunc("/route", r.proxyByDeployment(nil))
	mux.HandleFunc("/fail", r.proxyByDeployment(r.afterMutation(serve.MutationFail)))
	mux.HandleFunc("/revive", r.proxyByDeployment(r.afterMutation(serve.MutationRevive)))
	mux.HandleFunc("/move", r.proxyByDeployment(r.afterMutation(serve.MutationMove)))
	return mux
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	var rep Replica
	if !serve.DecodeBody(w, req, &rep) {
		return
	}
	m, err := r.Join(rep)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, m)
}

func (r *Router) handleShardMap(w http.ResponseWriter, req *http.Request) {
	serve.WriteJSON(w, http.StatusOK, r.Map())
}

func (r *Router) handleOwner(w http.ResponseWriter, req *http.Request) {
	dep := req.URL.Query().Get("deployment")
	if dep == "" {
		serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("deployment query parameter required"))
		return
	}
	rep, ok := r.Map().Owner(dep)
	if !ok {
		serve.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no alive replicas"))
		return
	}
	serve.WriteJSON(w, http.StatusOK, rep)
}

func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	m := r.Map()
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"ok": true, "router": true, "version": m.Version, "replicas": len(m.Replicas),
	})
}

// fleetStats is the /stats body: the fleet-level picture plus one entry
// per known replica.
type fleetStats struct {
	Version     uint64             `json:"version"`
	Deployments int                `json:"deployments"`
	Replicas    []fleetReplicaStat `json:"replicas"`
}

type fleetReplicaStat struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	Owned int    `json:"owned"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	m := r.Map()
	owned := make(map[string]int)
	r.mu.RLock()
	for name := range r.desired {
		if rep, ok := m.Owner(name); ok {
			owned[rep.ID]++
		}
	}
	out := fleetStats{Version: m.Version, Deployments: len(r.desired)}
	for _, mem := range r.members {
		out.Replicas = append(out.Replicas, fleetReplicaStat{
			ID: mem.rep.ID, Addr: mem.rep.Addr, Alive: mem.alive, Owned: owned[mem.rep.ID],
		})
	}
	r.mu.RUnlock()
	sortReplicaStats(out.Replicas)
	serve.WriteJSON(w, http.StatusOK, out)
}

func sortReplicaStats(s []fleetReplicaStat) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.reg.WriteText(w)
}

func (r *Router) handleEvents(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	max, _ := strconv.Atoi(q.Get("max"))
	serve.WriteJSON(w, http.StatusOK, serve.EventsBody{Events: r.journal.Since(after, max), Total: r.journal.Total()})
}

// handleDeploy derives the registry name to shard on, then forwards
// the deploy to its owner.
func (r *Router) handleDeploy(w http.ResponseWriter, req *http.Request) {
	var dr serve.DeployRequest
	if !serve.DecodeBody(w, req, &dr) {
		return
	}
	model, err := topo.ParseDeployModel(strings.ToLower(dr.Model))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err)
		return
	}
	spec := serve.Spec{Model: model, N: dr.N, Seed: dr.Seed, Coverage: dr.Coverage}
	name := dr.Name
	if name == "" {
		name = spec.DefaultName()
	}
	dr.Name = name
	body, _ := json.Marshal(dr)
	status, resp, err := r.forward(name, "/deploy", body, req.Header.Get("X-Request-Id"))
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, err)
		return
	}
	if status == http.StatusOK {
		r.recordDeploy(name, spec)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(resp)
}

// proxyByDeployment forwards a POST to the owner of the deployment
// its JSON body names, invoking after(body) on a 200 so the
// desired-state table tracks what the replica applied. The client's
// X-Request-Id travels with the request, so the owner's journal
// carries it.
func (r *Router) proxyByDeployment(after func([]byte)) http.HandlerFunc {
	return serve.Only(http.MethodPost, func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 8<<20))
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, err)
			return
		}
		var probe struct {
			Deployment string `json:"deployment"`
		}
		if err := json.Unmarshal(body, &probe); err != nil {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if probe.Deployment == "" {
			serve.WriteError(w, http.StatusBadRequest, fmt.Errorf("missing \"deployment\" field"))
			return
		}
		status, resp, err := r.forward(probe.Deployment, req.URL.Path, body, req.Header.Get("X-Request-Id"))
		if err != nil {
			serve.WriteError(w, http.StatusBadGateway, err)
			return
		}
		if status == http.StatusOK && after != nil {
			after(body)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(resp)
	})
}

// afterMutation returns the after-hook of a mutation endpoint: decode
// the accepted body and fold it into the desired state.
func (r *Router) afterMutation(kind serve.MutationKind) func([]byte) {
	return func(body []byte) {
		if dep, m, err := serve.DecodeMutation(kind, bytes.NewReader(body)); err == nil {
			r.recordMutation(dep, m)
		}
	}
}

// forward POSTs body to the owning replica's endpoint, tagged with
// requestID when non-empty, and returns the response verbatim.
func (r *Router) forward(deployment, path string, body []byte, requestID string) (int, []byte, error) {
	rep, ok := r.Map().Owner(deployment)
	if !ok {
		return 0, nil, fmt.Errorf("fleet: no alive replicas")
	}
	req, err := http.NewRequest(http.MethodPost, rep.Addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	r.proxied.Inc()
	resp, err := r.hc.Do(req)
	if err != nil {
		r.proxyErrs.Inc()
		return 0, nil, fmt.Errorf("fleet: owner %s unreachable: %w", rep.ID, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		r.proxyErrs.Inc()
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// handleBatch splits a batch across owning replicas and reassembles the
// results in request order, so mixed-deployment batches work through
// the proxy exactly as against one process.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	var br serve.BatchRequest
	if !serve.DecodeBody(w, req, &br) {
		return
	}
	m := r.Map()
	if len(m.Replicas) == 0 {
		serve.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no alive replicas"))
		return
	}
	// Group request indices by owning replica.
	groups := make(map[string][]int)
	owners := make(map[string]Replica)
	for i, q := range br.Requests {
		rep, _ := m.Owner(q.Deployment)
		groups[rep.ID] = append(groups[rep.ID], i)
		owners[rep.ID] = rep
	}
	results := make([]serve.RouteResponse, len(br.Requests))
	var wg sync.WaitGroup
	for id, idxs := range groups {
		wg.Add(1)
		go func(rep Replica, idxs []int) {
			defer wg.Done()
			sub := make([]serve.RouteRequest, len(idxs))
			for j, i := range idxs {
				sub[j] = br.Requests[i]
			}
			r.proxied.Inc()
			var out serve.BatchResponse
			err := serve.PostJSON(r.hc, rep.Addr+"/batch", serve.BatchRequest{Requests: sub}, &out)
			if err == nil && len(out.Results) != len(idxs) {
				err = fmt.Errorf("%d results for %d requests", len(out.Results), len(idxs))
			}
			if err != nil {
				r.proxyErrs.Inc()
				for _, i := range idxs {
					results[i] = serve.RouteResponse{Err: fmt.Sprintf("fleet: owner %s: %v", rep.ID, err)}
				}
				return
			}
			for j, i := range idxs {
				results[i] = out.Results[j]
			}
		}(owners[id], idxs)
	}
	wg.Wait()
	serve.WriteJSON(w, http.StatusOK, serve.BatchResponse{Results: results})
}
