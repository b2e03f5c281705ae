package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/topo"
)

// getJSON fetches path and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestJournalRecordsTopologyChanges(t *testing.T) {
	s, name := newTestService(t, Config{})
	pair := alivePairs(t, s, name, 1)[0]

	// The lazy build on first use journals a build event.
	if _, _, err := s.Route(name, "SLGF2", pair[0], pair[1]); err != nil {
		t.Fatal(err)
	}
	evs := s.Events(0, 0)
	if len(evs) != 1 || evs[0].Kind != obs.EventBuild {
		t.Fatalf("after build journal = %+v; want one build event", evs)
	}
	if evs[0].Deployment != name || evs[0].Nodes != testSpec.N || evs[0].DurationUS <= 0 {
		t.Fatalf("build event = %+v", evs[0])
	}

	// A tagged fail journals the request ID, batch size, dirty count,
	// epoch bump, and per-substrate repair spans.
	if err := s.Mutate(name, Mutation{Kind: MutationFail, Nodes: []topo.NodeID{pair[0]}}, "req-123"); err != nil {
		t.Fatal(err)
	}
	evs = s.Events(0, 0)
	if len(evs) != 2 || evs[1].Kind != obs.EventFail {
		t.Fatalf("after fail journal = %+v; want build then fail", evs)
	}
	ev := evs[1]
	if ev.RequestID != "req-123" || ev.Nodes != 1 || ev.Dirty == 0 || ev.Epoch != 1 {
		t.Fatalf("fail event = %+v", ev)
	}
	if _, cached, err := s.Route(name, "SLGF2", pair[0], pair[1]); err != nil || cached {
		t.Fatalf("route after fail: cached=%v err=%v; the epoch bump must hide the cached route", cached, err)
	}
	if ev.DurationUS < ev.SafetyUS {
		t.Fatalf("fail event spans look wrong: %+v", ev)
	}

	// Revive and move record their own kinds.
	if err := s.Revive(name, []topo.NodeID{pair[0]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Mutate(name, Mutation{Kind: MutationMove, Moves: []topo.Move{{Node: pair[0], X: 50, Y: 50}}}, "req-456"); err != nil {
		t.Fatal(err)
	}
	evs = s.Events(0, 0)
	if len(evs) != 4 || evs[2].Kind != obs.EventRevive || evs[3].Kind != obs.EventMove {
		t.Fatalf("journal kinds = %+v", evs)
	}
	if evs[3].RequestID != "req-456" {
		t.Fatalf("move event = %+v", evs[3])
	}
}

func TestHTTPEventsEndpoint(t *testing.T) {
	s, name := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	pair := alivePairs(t, s, name, 1)[0]

	// /fail with a client-supplied X-Request-Id lands it in the journal.
	body := fmt.Sprintf(`{"deployment":%q,"nodes":[%d]}`, name, pair[0])
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/fail", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "client-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fail status = %d", resp.StatusCode)
	}

	var er EventsBody
	if code := getJSON(t, srv, "/events", &er); code != http.StatusOK {
		t.Fatalf("/events status = %d", code)
	}
	if len(er.Events) != 2 || er.Total != 2 {
		t.Fatalf("/events = %+v", er)
	}
	if er.Events[1].Kind != obs.EventFail || er.Events[1].RequestID != "client-7" {
		t.Fatalf("fail event over HTTP = %+v", er.Events[1])
	}

	// Kind and deployment filters.
	var fr EventsBody
	getJSON(t, srv, "/events?kind=fail", &fr)
	if len(fr.Events) != 1 || fr.Events[0].Kind != obs.EventFail {
		t.Fatalf("/events?kind=fail = %+v", fr.Events)
	}
	getJSON(t, srv, "/events?deployment=nope", &fr)
	if len(fr.Events) != 0 {
		t.Fatalf("/events?deployment=nope = %+v", fr.Events)
	}
	// Incremental poll: after=Total sees nothing new.
	getJSON(t, srv, fmt.Sprintf("/events?after=%d", er.Total), &fr)
	if len(fr.Events) != 0 {
		t.Fatalf("/events?after=%d = %+v", er.Total, fr.Events)
	}
	// Bad parameters are 400s.
	for _, q := range []string{"?kind=bogus", "?after=x", "?max=0"} {
		if code := getJSON(t, srv, "/events"+q, nil); code != http.StatusBadRequest {
			t.Fatalf("/events%s status = %d; want 400", q, code)
		}
	}
}

// TestFlightRecorderStorm scrapes /events and /metrics while routes
// and fail/revive/move churn run concurrently — the lock-free reader
// paths must stay race-clean (run with -race) and the pages well-formed
// throughout.
func TestFlightRecorderStorm(t *testing.T) {
	s, name := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	pairs := alivePairs(t, s, name, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes, routes atomic.Int64

	// Routers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[(w+i)%len(pairs)]
				if _, _, err := s.Route(name, "SLGF2", p[0], p[1]); err != nil {
					t.Errorf("route: %v", err)
					return
				}
				routes.Add(1)
			}
		}(w)
	}

	// Churner: fail/revive one node, move another, round-robin.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := pairs[i%len(pairs)][0]
			if err := s.Mutate(name, Mutation{Kind: MutationFail, Nodes: []topo.NodeID{u}}, fmt.Sprintf("storm-%d", i)); err != nil {
				t.Errorf("fail: %v", err)
				return
			}
			if err := s.Revive(name, []topo.NodeID{u}); err != nil {
				t.Errorf("revive: %v", err)
				return
			}
			if err := s.Move(name, []topo.Move{{Node: u, X: float64(10 + i%80), Y: 50}}); err != nil {
				t.Errorf("move: %v", err)
				return
			}
		}
	}()

	// Scrapers.
	for _, path := range []string{"/events", "/metrics"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d err %v", path, resp.StatusCode, err)
					return
				}
				if len(body) == 0 {
					t.Errorf("GET %s: empty body", path)
					return
				}
				scrapes.Add(1)
			}
		}(path)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if routes.Load() == 0 || scrapes.Load() == 0 {
		t.Fatalf("storm did no work: routes=%d scrapes=%d", routes.Load(), scrapes.Load())
	}
	evs := s.Events(0, 0)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("journal seqs not contiguous: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}
