package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/workload"
)

// Rung is one operating point of the curve: the base scenario run at
// one swept value (offered rate by default).
type Rung struct {
	// AxisValue is the swept knob's value at this rung (equal to
	// OfferedRPS on rate sweeps; churn fail rate, drift fraction, or
	// obstacle coverage on the other axes).
	AxisValue   float64 `json:"axis_value,omitempty"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int64   `json:"requests"`
	// MovedNodes totals mobility-schedule position changes during the
	// rung (drift and churn axes chart delivery against it).
	MovedNodes int64 `json:"moved_nodes,omitempty"`
	// Dropped counts arrivals shed by the open loop's bounded queue —
	// nonzero is the engine-side signature of saturation.
	Dropped      int64            `json:"dropped,omitempty"`
	Errors       int64            `json:"errors,omitempty"`
	DeliveryRate float64          `json:"delivery_rate"`
	CachedShare  float64          `json:"cached_share"`
	Latency      workload.Latency `json:"latency"`
	ElapsedMS    float64          `json:"elapsed_ms"`
	// Saturated marks rungs whose achieved rate fell below the knee
	// tolerance band.
	Saturated bool `json:"saturated,omitempty"`
}

// CapacityCurve is the sweep's one JSON artifact: every rung plus the
// detected landmarks, comparable across builds (Compare).
type CapacityCurve struct {
	Name       string                  `json:"name"`
	Scenario   string                  `json:"scenario"`
	Driver     string                  `json:"driver"`
	Deployment workload.DeploymentSpec `json:"deployment"`
	Algorithm  string                  `json:"algorithm"`
	// Axis is the swept knob ("rate" when absent — curves predating
	// non-rate axes are all rate sweeps).
	Axis          string  `json:"axis,omitempty"`
	Mode          string  `json:"mode"`
	KneeTolerance float64 `json:"knee_tolerance"`
	CliffFactor   float64 `json:"cliff_factor"`

	// Rungs is sorted by offered rate.
	Rungs []Rung `json:"rungs"`
	// SkippedRungs counts ladder rungs never run because the curve
	// collapsed first (StopOnCollapse).
	SkippedRungs int `json:"skipped_rungs,omitempty"`

	// KneeRung indexes the first saturated rung (-1: the driver
	// absorbed the whole ladder); KneeRPS is its offered rate.
	KneeRung int     `json:"knee_rung"`
	KneeRPS  float64 `json:"knee_rps,omitempty"`
	// CliffRung indexes the first rung whose p99 is >= CliffFactor ×
	// the smallest p99 of any earlier rung (-1: no cliff observed);
	// CliffRPS is its offered rate.
	CliffRung int     `json:"cliff_rung"`
	CliffRPS  float64 `json:"cliff_rps,omitempty"`

	// StartUnixMs anchors the sweep in wall time so the journal below
	// can be read against it.
	StartUnixMs int64 `json:"start_unix_ms,omitempty"`
	// Journal holds the events the server journaled during the sweep,
	// oldest first.
	Journal []obs.Event `json:"journal,omitempty"`
}

// detect (re)locates the knee and the p99 cliff over the sorted rungs.
func (c *CapacityCurve) detect() {
	c.KneeRung, c.KneeRPS = -1, 0
	c.CliffRung, c.CliffRPS = -1, 0
	minP99 := 0.0
	for i := range c.Rungs {
		r := &c.Rungs[i]
		r.Saturated = r.AchievedRPS < r.OfferedRPS*(1-c.KneeTolerance)
		if r.Saturated && c.KneeRung < 0 {
			c.KneeRung, c.KneeRPS = i, r.OfferedRPS
		}
		if i > 0 && c.CliffRung < 0 && minP99 > 0 && r.Latency.P99us >= c.CliffFactor*minP99 {
			c.CliffRung, c.CliffRPS = i, r.OfferedRPS
		}
		if i == 0 || r.Latency.P99us < minP99 {
			minP99 = r.Latency.P99us
		}
	}
}

// WriteJSON writes the indented curve artifact.
func (c *CapacityCurve) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// WriteFile writes the curve artifact to a file.
func (c *CapacityCurve) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseCurve decodes a curve artifact.
func ParseCurve(data []byte) (*CapacityCurve, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c CapacityCurve
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("sweep: bad curve JSON: %w", err)
	}
	return &c, nil
}

// ParseCurveFile reads and decodes a curve artifact file.
func ParseCurveFile(path string) (*CapacityCurve, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	c, err := ParseCurve(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return c, nil
}

// Summary renders the human-readable curve table the CLI prints.
func (c *CapacityCurve) Summary() string {
	var b strings.Builder
	kind := "capacity"
	if c.Axis != "" && c.Axis != AxisRate {
		kind = c.Axis
	}
	fmt.Fprintf(&b, "%s curve %s [%s] %s over %s-%d-%d (%s ladder)\n",
		kind, c.Name, c.Driver, c.Algorithm, strings.ToUpper(c.Deployment.Model), c.Deployment.N, c.Deployment.Seed, c.Mode)
	axisCol := c.Axis != "" && c.Axis != AxisRate
	if axisCol {
		fmt.Fprintf(&b, "  %10s", axisUnit(c.Axis))
	}
	fmt.Fprintf(&b, "  %10s %10s %9s %8s %8s %10s %10s\n",
		"offered/s", "achieved/s", "delivered", "cached", "dropped", "p50", "p99")
	for i, r := range c.Rungs {
		mark := " "
		if i == c.KneeRung {
			mark = "K"
		} else if r.Saturated {
			mark = "*"
		}
		if i == c.CliffRung {
			mark += "C"
		}
		if axisCol {
			// %.4g: geometric-ladder values carry float-multiply noise
			// (4.000000000000001) that would wreck the column.
			fmt.Fprintf(&b, "  %10.4g", r.AxisValue)
		}
		fmt.Fprintf(&b, "  %10.0f %10.0f %8.2f%% %7.1f%% %8d %9.1fus %9.1fus %s\n",
			r.OfferedRPS, r.AchievedRPS, 100*r.DeliveryRate, 100*r.CachedShare, r.Dropped,
			r.Latency.P50us, r.Latency.P99us, mark)
	}
	if c.KneeRung >= 0 {
		fmt.Fprintf(&b, "  knee (K): achieved fell >%.0f%% below offered at %.0f req/s\n", 100*c.KneeTolerance, c.KneeRPS)
	} else {
		fmt.Fprintf(&b, "  no knee: the driver absorbed the whole ladder\n")
	}
	if c.CliffRung >= 0 {
		fmt.Fprintf(&b, "  p99 cliff (C): >=%.0fx the light-load p99 at %.0f req/s\n", c.CliffFactor, c.CliffRPS)
	} else {
		fmt.Fprintf(&b, "  no p99 cliff observed\n")
	}
	if c.SkippedRungs > 0 {
		fmt.Fprintf(&b, "  (%d ladder rungs skipped after collapse)\n", c.SkippedRungs)
	}
	return b.String()
}
