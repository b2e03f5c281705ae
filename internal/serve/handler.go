package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/topo"
)

// Handler returns the HTTP/JSON API over the service:
//
//	POST /deploy  {"name"?, "model", "n", "seed", "coverage"?, "build"?}
//	POST /route   {"deployment", "algorithm", "src", "dst", "path"?, "trace"?}
//	POST /batch   {"requests": [RouteRequest, ...]}
//	POST /fail    {"deployment", "nodes": [id, ...]}
//	POST /revive  {"deployment", "nodes": [id, ...]}
//	POST /move    {"deployment", "moves": [{"node", "x", "y"}, ...]}
//	GET  /stats
//	GET  /metrics
//	GET  /traces
//	GET  /events?kind=&deployment=&after=&max=
//	GET  /state
//	POST /restore {"states": [DeploymentState, ...]}
//
// Errors are {"error": "..."} with a 4xx/5xx status. Every endpoint is
// instrumented: request count, error count, and latency land in the
// service registry under the endpoint's path.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, s.instrument(path, Only(http.MethodGet, h)))
	}
	post := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, s.instrument(path, Only(http.MethodPost, h)))
	}
	post("/deploy", s.handleDeploy)
	post("/route", s.handleRoute)
	post("/batch", s.handleBatch)
	post("/fail", s.handleMutation(MutationFail))
	post("/revive", s.handleMutation(MutationRevive))
	post("/move", s.handleMutation(MutationMove))
	get("/stats", s.handleStats)
	get("/metrics", s.handleMetrics)
	get("/traces", s.handleTraces)
	get("/events", s.handleEvents)
	get("/state", s.handleState)
	post("/restore", s.handleRestore)
	// /readyz is deliberately uninstrumented: fleet health checks hit it
	// several times a second and would drown the request series.
	mux.HandleFunc("/readyz", Only(http.MethodGet, s.handleReadyz))
	return mux
}

// readyzResponse is the liveness probe body. Port-zero servers (wasnd
// -addr :0) overlay the resolved listen address at the cmd layer.
type readyzResponse struct {
	OK          bool   `json:"ok"`
	ReplicaID   string `json:"replica_id,omitempty"`
	Deployments int    `json:"deployments"`
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, readyzResponse{
		OK:          true,
		ReplicaID:   s.cfg.ReplicaID,
		Deployments: len(s.Deployments()),
	})
}

func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, StateBody{States: s.ExportState()})
}

func (s *Service) handleRestore(w http.ResponseWriter, r *http.Request) {
	var req StateBody
	if !DecodeBody(w, r, &req) {
		return
	}
	if err := s.RestoreState(req.States); err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]int{"restored": len(req.States)})
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint handler with the request/error/latency
// series. The per-endpoint children are resolved once, here, so the
// request path only touches atomics.
func (s *Service) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.so.requests.With(endpoint)
	errs := s.so.requestErrors.With(endpoint)
	dur := s.so.requestDur.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		dur.Observe(time.Since(start).Microseconds())
		if sw.status >= 400 {
			errs.Inc()
		}
	}
}

// statusFor distinguishes client mistakes (bad deployment name, node,
// algorithm) from server-side lazy-build failures.
func statusFor(err error) int {
	if errors.Is(err, ErrBuild) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func (s *Service) handleDeploy(w http.ResponseWriter, r *http.Request) {
	var req DeployRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	model, err := topo.ParseDeployModel(strings.ToLower(req.Model))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.N <= 0 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("node count must be positive, got %d", req.N))
		return
	}
	spec := Spec{Model: model, N: req.N, Seed: req.Seed, Coverage: req.Coverage}
	name, err := s.Deploy(req.Name, spec)
	if err != nil {
		// The only Deploy error left after validation is a live name
		// registered with a different spec.
		WriteError(w, http.StatusConflict, err)
		return
	}
	if req.Build {
		if err := s.Build(name); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
	}
	WriteJSON(w, http.StatusOK, DeployResponse{
		Name: name, Model: model.String(), N: spec.N, Seed: spec.Seed,
	})
}

type routeRequest struct {
	RouteRequest
	// Path asks for the full node path in the response. Cached entries
	// store no paths, so a path:true request bypasses the cache read
	// and computes a fresh route (its aggregate outcome is still cached
	// for later pathless readers).
	Path bool `json:"path"`
	// Trace asks for the hop-by-hop decision trace. Like Path it forces
	// a fresh route computation.
	Trace bool `json:"trace"`
}

// tracedRouteResponse is a RouteResponse extended with the decision
// trace, returned for trace:true requests.
type tracedRouteResponse struct {
	RouteResponse
	Trace TraceRecord `json:"trace"`
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req routeRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if req.Trace {
		res, tr, epoch, err := s.routeTraced(req.Deployment, req.Algorithm, req.Src, req.Dst)
		if err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		WriteJSON(w, http.StatusOK, tracedRouteResponse{
			RouteResponse: toResponse(res, false, req.Path, epoch),
			Trace:         tr,
		})
		return
	}
	var res core.Result
	cached, epoch, err := s.route(&res, req.Deployment, req.Algorithm, req.Src, req.Dst, nil, req.Path, nil)
	if err != nil {
		WriteError(w, statusFor(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, toResponse(res, cached, req.Path, epoch))
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	WriteJSON(w, http.StatusOK, BatchResponse{Results: s.Batch(req.Requests)})
}

type failResponse struct {
	Deployment string        `json:"deployment"`
	Failed     []topo.NodeID `json:"failed"`
}

type moveResponse struct {
	Deployment string `json:"deployment"`
	Moved      int    `json:"moved"`
}

// handleMutation serves POST /fail, /revive and /move: decode the
// body into a Mutation, apply it under the request's ID, and answer
// with the dead set (fail, revive) or the move count (move).
func (s *Service) handleMutation(kind MutationKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		dep, m, err := DecodeMutation(kind, http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if err := s.Mutate(dep, m, requestIDOf(w, r)); err != nil {
			WriteError(w, statusFor(err), err)
			return
		}
		if kind == MutationMove {
			WriteJSON(w, http.StatusOK, moveResponse{Deployment: dep, Moved: len(m.Moves)})
			return
		}
		failed, err := s.Failed(dep)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, http.StatusOK, failResponse{Deployment: dep, Failed: failed})
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.so.reg.WriteText(w)
}

// tracesResponse wraps the sampled-trace listing.
type tracesResponse struct {
	Traces []TraceRecord `json:"traces"`
}

func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, tracesResponse{Traces: s.Traces()})
}
