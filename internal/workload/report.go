package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/straightpath/wasn/internal/metrics"
	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// Latency summarizes one latency distribution in microseconds.
type Latency struct {
	P50us  float64 `json:"p50_us"`
	P90us  float64 `json:"p90_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MeanUs float64 `json:"mean_us"`
	MaxUs  float64 `json:"max_us"`
}

func latencyFrom(h *metrics.Histogram) Latency {
	const us = 1e3
	return Latency{
		P50us:  float64(h.Quantile(0.50)) / us,
		P90us:  float64(h.Quantile(0.90)) / us,
		P99us:  float64(h.Quantile(0.99)) / us,
		P999us: float64(h.Quantile(0.999)) / us,
		MeanUs: h.Mean() / us,
		MaxUs:  float64(h.Max()) / us,
	}
}

// PhaseReport is the slice of a run between two churn events (phase 0
// runs from start to the first event).
type PhaseReport struct {
	Name          string  `json:"name"`
	StartMS       float64 `json:"start_ms"`
	EndMS         float64 `json:"end_ms"`
	Requests      int64   `json:"requests"`
	Delivered     int64   `json:"delivered"`
	DeliveryRate  float64 `json:"delivery_rate"`
	Errors        int64   `json:"errors,omitempty"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Latency       Latency `json:"latency"`
}

// TimelinePoint is one throughput-timeline bucket.
type TimelinePoint struct {
	TMS       int64 `json:"t_ms"`
	Completed int64 `json:"completed"`
}

// AppliedChurn records what a churn event actually did when it fired.
type AppliedChurn struct {
	AtMS      int           `json:"at_ms"`
	AppliedMS float64       `json:"applied_ms"`
	Failed    []topo.NodeID `json:"failed,omitempty"`
	Revived   []topo.NodeID `json:"revived,omitempty"`
	Err       string        `json:"error,omitempty"`
}

// Report is the outcome of one scenario run: the JSON document
// wasnd -load/-replay -out writes and wasnd -render reads.
type Report struct {
	Scenario   string  `json:"scenario"`
	Driver     string  `json:"driver"`
	Deployment string  `json:"deployment"`
	Algorithm  string  `json:"algorithm"`
	Arrival    Arrival `json:"arrival"`
	Traffic    Traffic `json:"traffic"`

	ElapsedMS    float64 `json:"elapsed_ms"`
	Requests     int64   `json:"requests"`
	Delivered    int64   `json:"delivered"`
	DeliveryRate float64 `json:"delivery_rate"`
	// Errors counts failed *requests* (transport/validation), not
	// undelivered routes; ErrorSample is the first message seen.
	Errors      int64  `json:"errors,omitempty"`
	ErrorSample string `json:"error_sample,omitempty"`
	// Dropped counts open-loop arrivals shed because the dispatch
	// queue was full — nonzero means the offered rate exceeded what
	// the driver could absorb.
	Dropped int64 `json:"dropped,omitempty"`
	// MovedNodes totals the node positions changed by the mobility
	// schedule (and by replayed move lines) during the measured window.
	MovedNodes int64 `json:"moved_nodes,omitempty"`
	// OfferedRPS is the open-loop target rate (0 for closed loops);
	// ThroughputRPS is what actually completed per second.
	OfferedRPS    float64 `json:"offered_rps,omitempty"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// CachedShare is the client-observed fraction of requests answered
	// from the route cache.
	CachedShare float64 `json:"cached_share"`

	Latency  Latency         `json:"latency"`
	Phases   []PhaseReport   `json:"phases"`
	Timeline []TimelinePoint `json:"timeline"`
	Churn    []AppliedChurn  `json:"churn,omitempty"`
	// Server is the driver's end-of-run /stats snapshot (cache hit
	// rate, per-deployment repair counters), nil if unavailable.
	Server *serve.Stats `json:"server_stats,omitempty"`
	// StartUnixMs anchors the measured window in wall time so the
	// journal below — stamped in server wall time — can be read against
	// AppliedMS offsets.
	StartUnixMs int64 `json:"start_unix_ms,omitempty"`
	// Journal holds the events the server journaled during the
	// measured window, oldest first.
	Journal []obs.Event `json:"journal,omitempty"`
}

// WriteJSON writes the indented JSON report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the few human-readable lines the CLI prints.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s] %s over %s: %d requests in %.0fms = %.0f req/s",
		r.Scenario, r.Driver, r.Algorithm, r.Deployment, r.Requests, r.ElapsedMS, r.ThroughputRPS)
	if r.OfferedRPS > 0 {
		fmt.Fprintf(&b, " (offered %.0f)", r.OfferedRPS)
	}
	fmt.Fprintf(&b, "\n  delivered %.2f%%  cached %.1f%%  errors %d  dropped %d",
		100*r.DeliveryRate, 100*r.CachedShare, r.Errors, r.Dropped)
	if r.MovedNodes > 0 {
		fmt.Fprintf(&b, "  moved %d", r.MovedNodes)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  latency p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus\n",
		r.Latency.P50us, r.Latency.P90us, r.Latency.P99us, r.Latency.P999us, r.Latency.MaxUs)
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-12s %6d req  %.2f%% delivered  p50=%.1fus p99=%.1fus\n",
			p.Name, p.Requests, 100*p.DeliveryRate, p.Latency.P50us, p.Latency.P99us)
	}
	if r.Server != nil {
		fmt.Fprintf(&b, "  server: cache hit rate %.1f%%", 100*r.Server.CacheHitRate)
		for _, d := range r.Server.PerDeployment {
			fmt.Fprintf(&b, "  [%s epoch=%d failed=%d repairs=%d]",
				d.Name, d.Epoch, d.FailedNodes, d.Repairs)
		}
		b.WriteString("\n")
	}
	if len(r.Journal) > 0 {
		fmt.Fprintf(&b, "  journal: %d events\n", len(r.Journal))
	}
	return b.String()
}
