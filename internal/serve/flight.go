package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/straightpath/wasn/internal/obs"
)

// defaultSamplerSpecs is the timeline the flight recorder maintains
// when Config.SampleEveryMS enables sampling: throughput, delivery and
// cache shares, tail latencies, repair durations broken down by
// substrate, and churn rates — the curves /debug/dash charts.
func defaultSamplerSpecs() []obs.SeriesSpec {
	return []obs.SeriesSpec{
		{Name: "routes_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_routes_total"}},
		{Name: "computed_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_routes_computed_total"}},
		{Name: "delivered_share", Kind: obs.SeriesRatio,
			Num: obs.Term{Family: "wasn_routes_computed_total", Match: `outcome="delivered"`},
			Den: obs.Term{Family: "wasn_routes_computed_total", Match: `outcome="dropped"`}},
		{Name: "cache_hit_share", Kind: obs.SeriesRatio,
			Num: obs.Term{Family: "wasn_route_cache_hits_total"},
			Den: obs.Term{Family: "wasn_route_cache_misses_total"}},
		{Name: "cache_entries", Kind: obs.SeriesGauge,
			Num: obs.Term{Family: "wasn_route_cache_entries"}},
		{Name: "http_p99_us", Kind: obs.SeriesQuantile,
			Num: obs.Term{Family: "wasn_http_request_duration_us"}, Q: 0.99},
		{Name: "repairs_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_repair_duration_us"}},
		{Name: "repair_p99_us", Kind: obs.SeriesQuantile,
			Num: obs.Term{Family: "wasn_repair_duration_us"}, Q: 0.99},
		{Name: "repair_safety_p99_us", Kind: obs.SeriesQuantile,
			Num: obs.Term{Family: "wasn_repair_substrate_duration_us", Match: `substrate="safety"`}, Q: 0.99},
		{Name: "repair_bound_p99_us", Kind: obs.SeriesQuantile,
			Num: obs.Term{Family: "wasn_repair_substrate_duration_us", Match: `substrate="bound"`}, Q: 0.99},
		{Name: "repair_planar_p99_us", Kind: obs.SeriesQuantile,
			Num: obs.Term{Family: "wasn_repair_substrate_duration_us", Match: `substrate="planar"`}, Q: 0.99},
		{Name: "failed_nodes_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_failed_nodes_total"}},
		{Name: "revived_nodes_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_revived_nodes_total"}},
		{Name: "moved_nodes_per_s", Kind: obs.SeriesRate,
			Num: obs.Term{Family: "wasn_moved_nodes_total"}},
	}
}

// Timeline snapshots the flight recorder's sampled series window.
// Empty (no timestamps) when the sampler is disabled.
func (s *Service) Timeline() obs.TimelineWindow {
	if s.sampler == nil {
		return obs.TimelineWindow{}
	}
	return s.sampler.Snapshot()
}

// SampleNow forces one timeline sample immediately — end-of-run
// flushes and tests use it so the final window covers the last events
// without waiting for a tick. No-op when the sampler is disabled.
func (s *Service) SampleNow() {
	if s.sampler != nil {
		s.sampler.Sample()
	}
}

// Events returns up to max journal events with Seq > after, oldest
// first (max <= 0: the whole retained ring). Entries lost to ring
// wraparound are skipped.
func (s *Service) Events(after uint64, max int) []obs.Event {
	return s.journal.Since(after, max)
}

// Journal exposes the flight-recorder journal so in-process embedders
// and tests can record or tail without an HTTP round trip.
func (s *Service) Journal() *obs.Journal { return s.journal }

func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, TimelineBody{Timeline: s.Timeline()})
}

// handleEvents serves the journal tail. Filters: ?kind=fail (event
// kind name), ?deployment=NAME, ?after=SEQ (strictly newer entries),
// ?max=N (newest N after filtering; default 256).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var kind obs.EventKind
	if v := q.Get("kind"); v != "" {
		k, err := obs.ParseEventKind(v)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		kind = k
	}
	after := uint64(0)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad after: %w", err))
			return
		}
		after = n
	}
	max := 256
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		max = n
	}
	dep := q.Get("deployment")

	evs := s.journal.Since(after, 0)
	filtered := evs[:0:0]
	for _, ev := range evs {
		if kind != obs.EventNone && ev.Kind != kind {
			continue
		}
		if dep != "" && ev.Deployment != dep {
			continue
		}
		filtered = append(filtered, ev)
	}
	if len(filtered) > max {
		filtered = filtered[len(filtered)-max:]
	}
	if filtered == nil {
		filtered = []obs.Event{} // "events": [] rather than null
	}
	WriteJSON(w, http.StatusOK, EventsBody{Events: filtered, Total: s.journal.Total()})
}

// requestIDOf recovers the request ID for journal attribution: the
// client's X-Request-Id header if it sent one, else the ID the logging
// middleware assigned (wasnd sets the response header before invoking
// the inner handler, exactly so this lookup needs no context plumbing).
func requestIDOf(w http.ResponseWriter, r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		return id
	}
	return w.Header().Get("X-Request-Id")
}
