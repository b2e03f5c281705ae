package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/topo"
	"github.com/straightpath/wasn/internal/trace"
)

// The exposition must parse strictly and carry every family the
// workload engine and the CI gate rely on, with values that agree with
// Stats — the registry is the single source of truth for both views.
func TestMetricsExpositionAndStatsAgree(t *testing.T) {
	s, name := newTestService(t, Config{StretchSampleEvery: 1, TraceSampleEvery: 2})
	pairs := alivePairs(t, s, name, 8)
	for _, alg := range []string{"SLGF2", "LGF", "Ideal-hops"} {
		for _, p := range pairs {
			if _, _, err := s.Route(name, alg, p[0], p[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Repeat one pair: a cache hit must not add computed-route samples.
	if _, cached, err := s.Route(name, "SLGF2", pairs[0][0], pairs[0][1]); err != nil || !cached {
		t.Fatalf("expected cache hit, cached=%v err=%v", cached, err)
	}
	if err := s.Fail(name, []topo.NodeID{pairs[7][0]}); err != nil {
		t.Fatal(err)
	}

	samples, err := obs.ParseText(strings.NewReader(s.Registry().Text()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	missing := obs.MissingSeries(samples, []string{
		"wasn_routes_total",
		"wasn_routes_computed_total",
		"wasn_route_hops",
		"wasn_route_phase_hops_total",
		"wasn_route_hop_stretch_hundredths",
		"wasn_route_cache_hits_total",
		"wasn_route_cache_misses_total",
		"wasn_route_cache_entries",
		"wasn_substrate_builds_total",
		"wasn_failed_nodes_total",
		"wasn_repair_duration_us",
		"wasn_build_duration_us",
		"wasn_deployments",
		"wasn_traces_recorded_total",
	})
	if len(missing) > 0 {
		t.Fatalf("exposition missing families: %v", missing)
	}

	st := s.Stats()
	if got := samples["wasn_routes_total"]; got != float64(st.Routes) {
		t.Errorf("wasn_routes_total = %v, Stats.Routes = %d", got, st.Routes)
	}
	if got := samples["wasn_route_cache_hits_total"]; got != float64(st.CacheHits) {
		t.Errorf("wasn_route_cache_hits_total = %v, Stats.CacheHits = %d", got, st.CacheHits)
	}
	if got := samples["wasn_failed_nodes_total"]; got != float64(st.FailedNodes) {
		t.Errorf("wasn_failed_nodes_total = %v, Stats.FailedNodes = %d", got, st.FailedNodes)
	}
	if got := samples["wasn_substrate_builds_total"]; got != float64(st.Builds) {
		t.Errorf("wasn_substrate_builds_total = %v, Stats.Builds = %d", got, st.Builds)
	}
	// Computed-route accounting: SLGF2 computed exactly len(pairs)
	// routes (the repeat was a hit), every phase hop landed in the
	// phase series, and the stretch histogram sampled every delivered
	// non-ideal route.
	slgf2 := `wasn_routes_computed_total{algorithm="SLGF2",outcome="delivered"}`
	if samples[slgf2] == 0 {
		t.Errorf("no delivered SLGF2 routes in %v", samples)
	}
	if samples[`wasn_route_hop_stretch_hundredths_count{algorithm="SLGF2"}`] == 0 {
		t.Error("stretch sampling recorded nothing for SLGF2")
	}
	// The ideal reference is never stretch-sampled (stretch 1 by
	// construction).
	if got := samples[`wasn_route_hop_stretch_hundredths_count{algorithm="Ideal-hops"}`]; got != 0 {
		t.Errorf("ideal router was stretch-sampled %v times", got)
	}
}

// Stretch is quoted in hundredths: every sample must be >= 100 (no
// algorithm beats the minimum-hop ideal) and the ideal lower bound
// keeps the histogram sum consistent with its count.
func TestStretchLowerBound(t *testing.T) {
	s, name := newTestService(t, Config{StretchSampleEvery: 1})
	pairs := alivePairs(t, s, name, 10)
	for _, p := range pairs {
		if _, _, err := s.Route(name, "GPSR", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := obs.ParseText(strings.NewReader(s.Registry().Text()))
	if err != nil {
		t.Fatal(err)
	}
	count := samples[`wasn_route_hop_stretch_hundredths_count{algorithm="GPSR"}`]
	sum := samples[`wasn_route_hop_stretch_hundredths_sum{algorithm="GPSR"}`]
	if count == 0 {
		t.Fatal("no stretch samples recorded")
	}
	if sum < 100*count {
		t.Errorf("mean stretch %v < 100: an algorithm beat the ideal", sum/count)
	}
}

// An explicitly traced route must replay the exact hop sequence the
// trace package records against the same router — and the served path
// must match the trace's events hop for hop.
func TestRouteTracedMatchesTracePackage(t *testing.T) {
	s := New(Config{})
	name, err := s.Deploy("", Spec{Model: topo.ModelFA, N: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := alivePairs(t, s, name, 4)
	d, err := s.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms() {
		p := pairs[1]
		res, tr, err := s.RouteTraced(name, alg, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if tr.Algorithm != alg || tr.Src != p[0] || tr.Dst != p[1] {
			t.Fatalf("%s: trace metadata wrong: %+v", alg, tr)
		}
		if len(tr.Events) != res.Hops() {
			t.Fatalf("%s: %d events, %d hops", alg, len(tr.Events), res.Hops())
		}
		// Differential: drive the router directly with a Recorder (the
		// trace package's observer) and require the same hop sequence.
		ai, _ := algorithmIndex(alg)
		d.mu.RLock()
		r := d.routers[ai]
		d.mu.RUnlock()
		rec := trace.Acquire()
		ref := routeObserved(r, p[0], p[1], nil, rec)
		if ref.Hops() != res.Hops() {
			t.Fatalf("%s: reference route disagrees: %d vs %d hops", alg, ref.Hops(), res.Hops())
		}
		for i, e := range rec.Events() {
			got := tr.Events[i]
			if got.Seq != e.Seq || got.From != e.From || got.To != e.To || got.Phase != e.Phase.String() {
				t.Fatalf("%s: event %d = %+v, reference %+v", alg, i, got, e)
			}
		}
		trace.Release(rec)
	}
}

// The trace:true HTTP path: response carries the decision trace, and
// its hop sequence equals the served path.
func TestHTTPRouteTrace(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(map[string]any{
		"deployment": name, "algorithm": "SLGF2",
		"src": pairs[0][0], "dst": pairs[0][1],
		"path": true, "trace": true,
	})
	resp, err := http.Post(srv.URL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out tracedRouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Delivered || len(out.Trace.Events) != out.Hops {
		t.Fatalf("trace response inconsistent: %+v", out)
	}
	if len(out.Path) != out.Hops+1 {
		t.Fatalf("path length %d for %d hops", len(out.Path), out.Hops)
	}
	for i, e := range out.Trace.Events {
		if e.From != out.Path[i] || e.To != out.Path[i+1] {
			t.Fatalf("event %d (%d->%d) disagrees with path %v", i, e.From, e.To, out.Path)
		}
	}
}

// Sampled tracing fills the ring newest-first and caps at the
// configured size.
func TestTraceSamplingRing(t *testing.T) {
	s, name := newTestService(t, Config{TraceSampleEvery: 1, TraceRingSize: 3})
	pairs := alivePairs(t, s, name, 5)
	for _, p := range pairs {
		if _, _, err := s.Route(name, "LGF", p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	traces := s.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Newest first: the last routed pair leads.
	if traces[0].Src != pairs[4][0] || traces[0].Dst != pairs[4][1] {
		t.Errorf("newest trace is %d->%d, want %d->%d",
			traces[0].Src, traces[0].Dst, pairs[4][0], pairs[4][1])
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out tracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 3 {
		t.Fatalf("/traces returned %d, want 3", len(out.Traces))
	}
}

// The /metrics endpoint serves a parseable exposition with the right
// content type, and the middleware's own series cover it.
func TestHTTPMetricsEndpoint(t *testing.T) {
	s, name := newTestService(t, Config{})
	pairs := alivePairs(t, s, name, 2)
	if _, _, err := s.Route(name, "GF", pairs[0][0], pairs[0][1]); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Scrape twice: the second scrape must show the first one's request
	// in the endpoint series.
	if _, err := http.Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("served exposition does not parse: %v", err)
	}
	if samples[`wasn_http_requests_total{endpoint="/metrics"}`] < 1 {
		t.Error("middleware did not count the /metrics request")
	}
}

// Registry scrapes, sampled traces, routes, and topology mutations all
// run concurrently without racing (run under -race).
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	s, name := newTestService(t, Config{TraceSampleEvery: 3, StretchSampleEvery: 5})
	pairs := alivePairs(t, s, name, 8)
	const loops = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			algs := Algorithms()
			for i := 0; i < loops; i++ {
				p := pairs[(i+w)%len(pairs)]
				if _, _, err := s.Route(name, algs[(i+w)%len(algs)], p[0], p[1]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			if _, err := obs.ParseText(strings.NewReader(s.Registry().Text())); err != nil {
				t.Errorf("scrape %d: %v", i, err)
				return
			}
			s.Traces()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops/5; i++ {
			u := pairs[0][0]
			if err := s.Fail(name, []topo.NodeID{u}); err != nil {
				t.Error(err)
				return
			}
			if err := s.Revive(name, []topo.NodeID{u}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
