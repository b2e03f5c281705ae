package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// HTTP drives a running wasnd over its JSON API — the service measured
// over a real wire.
type HTTP struct {
	base   string
	client *http.Client
}

// NewHTTP builds an HTTP driver against a wasnd base URL, e.g.
// "http://localhost:8080".
func NewHTTP(base string) *HTTP {
	return &HTTP{base: strings.TrimRight(base, "/"), client: newHTTPClient()}
}

// newHTTPClient is the client of the HTTP and fleet drivers. Its
// transport keeps connections alive and allows enough idle connections
// per host that every engine worker reuses its own (connection churn
// would otherwise dominate small-request latency).
func newHTTPClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// Name implements Driver.
func (d *HTTP) Name() string { return "http" }

// Deploy implements Driver.
func (d *HTTP) Deploy(name string, spec DeploymentSpec) (string, error) {
	var resp deployResponse
	err := postJSON(d.client, d.base+"/deploy", deployRequest(name, spec), &resp)
	return resp.Name, err
}

// deployRequest is the POST /deploy body of both HTTP drivers; it asks
// the server to build the substrates before answering.
func deployRequest(name string, spec DeploymentSpec) map[string]any {
	req := map[string]any{
		"name": name, "model": spec.Model, "n": spec.N, "seed": spec.Seed,
		"build": true,
	}
	if spec.Coverage > 0 {
		// Only sent when set, so default-coverage scenarios stay
		// compatible with servers predating the knob.
		req["coverage"] = spec.Coverage
	}
	return req
}

type deployResponse struct {
	Name string `json:"name"`
}

// Route implements Driver.
func (d *HTTP) Route(deployment, algorithm string, src, dst topo.NodeID) (Outcome, error) {
	req := serve.RouteRequest{Deployment: deployment, Algorithm: algorithm, Src: src, Dst: dst}
	var resp serve.RouteResponse
	if err := postJSON(d.client, d.base+"/route", req, &resp); err != nil {
		return Outcome{}, err
	}
	if resp.Err != "" {
		return Outcome{}, fmt.Errorf("workload: /route: %s", resp.Err)
	}
	return Outcome{Delivered: resp.Delivered, Hops: resp.Hops, Cached: resp.Cached}, nil
}

// Mutate implements Driver (POST /fail, /revive or /move).
func (d *HTTP) Mutate(deployment string, m serve.Mutation) error {
	return postJSON(d.client, d.base+"/"+m.Kind.String(), m.Request(deployment), nil)
}

// Stats implements Driver.
func (d *HTTP) Stats() (serve.Stats, error) {
	var st serve.Stats
	err := getJSON(d.client, d.base+"/stats", &st)
	return st, err
}

// ScrapeMetrics implements Driver.
func (d *HTTP) ScrapeMetrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("workload: GET /metrics: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workload: /metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseText(resp.Body)
}

// Timeline implements Driver (GET /timeline). Servers predating the
// endpoint yield an error; callers embedding the window treat that as
// "no timeline".
func (d *HTTP) Timeline() (obs.TimelineWindow, error) {
	var body struct {
		Timeline obs.TimelineWindow `json:"timeline"`
	}
	err := getJSON(d.client, d.base+"/timeline", &body)
	return body.Timeline, err
}

// Events implements Driver (GET /events).
func (d *HTTP) Events(max int) ([]obs.Event, error) {
	return getEvents(d.client, d.base, max)
}

// Close implements Driver.
func (d *HTTP) Close() error {
	d.client.CloseIdleConnections()
	return nil
}

// postJSON sends one JSON request and decodes the 200 response into
// out (nil: discard it), surfacing the server's {"error": ...} body on
// other statuses. Every JSON call of the HTTP and fleet drivers goes
// through postJSON or getJSON.
func postJSON(hc *http.Client, url string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("workload: encoding %s request: %w", url, err)
	}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("workload: POST %s: %w", url, err)
	}
	return decodeJSON(url, resp, out)
}

// getJSON is postJSON for GET endpoints.
func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return fmt.Errorf("workload: GET %s: %w", url, err)
	}
	return decodeJSON(url, resp, out)
}

func decodeJSON(url string, resp *http.Response, out any) error {
	defer func() {
		// Drain so the keep-alive connection returns to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("workload: %s: %s (HTTP %d)", url, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("workload: %s: HTTP %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("workload: decoding %s response: %w", url, err)
	}
	return nil
}

// getEvents fetches up to max journal events (max <= 0: all retained)
// from a server's GET /events.
func getEvents(hc *http.Client, base string, max int) ([]obs.Event, error) {
	url := base + "/events"
	if max > 0 {
		url += fmt.Sprintf("?max=%d", max)
	}
	var body struct {
		Events []obs.Event `json:"events"`
	}
	err := getJSON(hc, url, &body)
	return body.Events, err
}
