package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"github.com/straightpath/wasn/internal/obs"
)

// Events returns up to max journal events with Seq > after, oldest
// first (max <= 0: the whole retained ring). Entries lost to ring
// wraparound are skipped.
func (s *Service) Events(after uint64, max int) []obs.Event {
	return s.journal.Since(after, max)
}

// Journal exposes the event journal so in-process embedders and tests
// can record or tail without an HTTP round trip.
func (s *Service) Journal() *obs.Journal { return s.journal }

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
