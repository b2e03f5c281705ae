package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/straightpath/wasn/internal/obs"
)

// This file is the JSON wire format of the routing API, both ends of
// it: the request and response bodies every tier shares, the writers
// the handlers answer with, and the client calls the workload drivers,
// the fleet router and wasnd make.

// DeployRequest is the POST /deploy body.
type DeployRequest struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"`
	// Coverage is the obstacle lattice-coverage target for model "ob"
	// (0 means the default; ignored for other models). It is omitted
	// when zero, so default-coverage clients stay compatible with
	// servers predating the knob.
	Coverage float64 `json:"coverage,omitempty"`
	// Build forces the substrates to be built before responding; by
	// default the first route pays that cost.
	Build bool `json:"build"`
}

// DeployResponse is the POST /deploy answer.
type DeployResponse struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"`
}

// BatchRequest is the POST /batch body.
type BatchRequest struct {
	Requests []RouteRequest `json:"requests"`
}

// BatchResponse is the POST /batch answer, one result per request in
// request order.
type BatchResponse struct {
	Results []RouteResponse `json:"results"`
}

// StateBody wraps the exported registry state (GET /state); the same
// shape is the /restore request body, so state can be piped
// replica-to-replica verbatim.
type StateBody struct {
	States []DeploymentState `json:"states"`
}

// EventsBody is the GET /events answer: the journal tail plus Total,
// the journal's all-time sequence high-water mark (pass it back as
// ?after= for incremental polls).
type EventsBody struct {
	Events []obs.Event `json:"events"`
	Total  uint64      `json:"total"`
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with the API's error body, {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// Only answers 405 with the API's error body unless the request uses
// method, and runs h otherwise.
func Only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("use %s", method))
			return
		}
		h(w, r)
	}
}

// maxBodyBytes bounds request bodies; /batch requests are the largest
// legitimate payloads and stay far under this.
const maxBodyBytes = 8 << 20

// DecodeBody strictly decodes a request's JSON body into v. On failure
// it has answered with the error and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// maxResponseBytes bounds the answer body a client call reads.
const maxResponseBytes = 64 << 20

// StatusError is a non-200 answer to a client call: the status and the
// {"error"} text the server sent (empty when the body carried none).
type StatusError struct {
	URL    string
	Status int
	Msg    string
}

// Error implements error: the URL, the server's text and the status.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%s: %s (HTTP %d)", e.URL, e.Msg, e.Status)
	}
	return fmt.Sprintf("%s: HTTP %d", e.URL, e.Status)
}

// Retryable reports whether a failed client call may succeed when
// repeated: a transport error or a 5xx may; a 4xx says the request
// itself is wrong, so repeating it cannot help.
func Retryable(err error) bool {
	var se *StatusError
	return !errors.As(err, &se) || se.Status >= 500
}

// PostJSON POSTs req as JSON to url and decodes a 200 answer into out
// (nil: discard it). Any other status is a *StatusError.
func PostJSON(hc *http.Client, url string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("serve: encoding %s request: %w", url, err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	return readAnswer(url, resp, err, decodeInto(out))
}

// GetJSON is PostJSON for GET endpoints.
func GetJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	return readAnswer(url, resp, err, decodeInto(out))
}

// ScrapeMetrics GETs a text exposition (a /metrics URL) and parses it
// with obs.ParseText.
func ScrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	var vals map[string]float64
	resp, err := hc.Get(url)
	err = readAnswer(url, resp, err, func(body io.Reader) (err error) {
		vals, err = obs.ParseText(body)
		return err
	})
	return vals, err
}

func decodeInto(out any) func(io.Reader) error {
	return func(body io.Reader) error {
		if out == nil {
			return nil
		}
		return json.NewDecoder(body).Decode(out)
	}
}

// readAnswer turns one client call's outcome into an error: the
// transport error, a *StatusError, or parse's verdict on a 200 body.
// It drains and closes the body so the keep-alive connection returns
// to the pool.
func readAnswer(url string, resp *http.Response, err error, parse func(io.Reader) error) error {
	if err != nil {
		return err // a *url.Error, which names the method and URL
	}
	body := io.LimitReader(resp.Body, maxResponseBytes)
	defer func() {
		_, _ = io.Copy(io.Discard, body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(body).Decode(&e) // a body without the field leaves Msg empty
		return &StatusError{URL: url, Status: resp.StatusCode, Msg: e.Error}
	}
	if err := parse(body); err != nil {
		return fmt.Errorf("serve: decoding %s answer: %w", url, err)
	}
	return nil
}
