package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/straightpath/wasn/internal/svgplot"
	"github.com/straightpath/wasn/internal/sweep"
	"github.com/straightpath/wasn/internal/workload"
)

// runRender implements wasnd -render: turn one of the two JSON
// documents wasnd writes — a workload report (-load/-replay -out) or a
// capacity curve (-sweep -out) — into a multi-panel SVG trajectory
// figure. A top-level report renders its timeline and a top-level
// curve its rungs; anything else is an error. Both decoders reject
// unknown fields, so schema drift fails the render instead of
// producing a blank panel.
func runRender(out io.Writer, inPath, outPath string) error {
	data, err := os.ReadFile(inPath)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("render: %s: bad JSON: %w", inPath, err)
	}

	fig := &svgplot.Figure{Title: filepath.Base(inPath)}
	var panels int
	switch {
	case top["scenario"] != nil && top["timeline"] != nil:
		rep, err := parseReportStrict(data)
		if err != nil {
			return fmt.Errorf("render: %s: %w", inPath, err)
		}
		panels = renderReport(fig, rep)
	case top["rungs"] != nil:
		curve, err := sweep.ParseCurve(data)
		if err != nil {
			return fmt.Errorf("render: %s: %w", inPath, err)
		}
		if panels, err = renderCurve(fig, curve); err != nil {
			return fmt.Errorf("render: %s: %w", inPath, err)
		}
	default:
		return fmt.Errorf("render: %s: neither a workload report (-load/-replay -out) nor a capacity curve (-sweep -out)", inPath)
	}

	if outPath == "" {
		outPath = strings.TrimSuffix(inPath, ".json") + ".svg"
	}
	f, err := os.Create(outPath)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if _, err := fig.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("render: writing %s: %w", outPath, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("render: %w", err)
	}
	fmt.Fprintf(out, "rendered %d panels from %s to %s\n", panels, inPath, outPath)
	return nil
}

// parseReportStrict decodes a workload report, rejecting unknown fields
// (drift in either direction must fail the render, not silently skip).
func parseReportStrict(data []byte) (*workload.Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r workload.Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bad report JSON: %w", err)
	}
	if len(r.Timeline) == 0 {
		return nil, fmt.Errorf("report has no timeline buckets")
	}
	return &r, nil
}

// renderReport adds the report's trajectory panels: client throughput
// with churn markers and per-phase p99 on the same x-axis (seconds
// since run start). Returns the panel count.
func renderReport(fig *svgplot.Figure, rep *workload.Report) int {
	mark := func(c *svgplot.Chart) {
		for _, ev := range rep.Churn {
			if ev.Err != "" {
				continue
			}
			color, label := "#c0392b", fmt.Sprintf("fail %d", len(ev.Failed))
			if len(ev.Revived) > 0 {
				color, label = "#27ae60", fmt.Sprintf("revive %d", len(ev.Revived))
			}
			c.Marker(ev.AppliedMS/1000, color, label)
		}
	}

	// Client throughput from the bucketed timeline.
	xs := make([]float64, len(rep.Timeline))
	ys := make([]float64, len(rep.Timeline))
	bucketMS := rep.ElapsedMS
	if len(rep.Timeline) > 1 {
		bucketMS = float64(rep.Timeline[1].TMS - rep.Timeline[0].TMS)
	}
	for i, p := range rep.Timeline {
		xs[i] = float64(p.TMS) / 1000
		if bucketMS > 0 {
			ys[i] = float64(p.Completed) * 1000 / bucketMS
		}
	}
	thru := svgplot.NewChart("Client throughput (req/s)", 760, 200)
	thru.XLabel = "seconds"
	thru.Step("completed/s", svgplot.PaletteColor(0), xs, ys)
	mark(thru)
	fig.Add(thru)
	panels := 1

	if len(rep.Phases) > 1 {
		px := make([]float64, len(rep.Phases))
		py := make([]float64, len(rep.Phases))
		for i, ph := range rep.Phases {
			px[i] = ph.StartMS / 1000
			py[i] = ph.Latency.P99us
		}
		lat := svgplot.NewChart("Per-phase p99 (us)", 760, 180)
		lat.XLabel = "seconds"
		lat.Step("p99", svgplot.PaletteColor(1), px, py)
		mark(lat)
		fig.Add(lat)
		panels++
	}

	return panels
}

// renderCurve adds a typed capacity curve's panels: delivery and cache
// share over the swept axis, latency (log-y), and — for rate sweeps —
// achieved vs offered, with knee and cliff markers.
func renderCurve(fig *svgplot.Figure, c *sweep.CapacityCurve) (int, error) {
	if len(c.Rungs) == 0 {
		return 0, fmt.Errorf("curve %q has no rungs", c.Name)
	}
	xlabel := "offered req/s"
	if c.Axis != "" && c.Axis != sweep.AxisRate {
		xlabel = c.Axis
	}
	xs := make([]float64, len(c.Rungs))
	del := make([]float64, len(c.Rungs))
	cached := make([]float64, len(c.Rungs))
	p50 := make([]float64, len(c.Rungs))
	p99 := make([]float64, len(c.Rungs))
	offered := make([]float64, len(c.Rungs))
	achieved := make([]float64, len(c.Rungs))
	for i, r := range c.Rungs {
		xs[i] = r.OfferedRPS
		if r.AxisValue != 0 {
			xs[i] = r.AxisValue
		}
		del[i] = r.DeliveryRate
		cached[i] = r.CachedShare
		p50[i] = r.Latency.P50us
		p99[i] = r.Latency.P99us
		offered[i] = r.OfferedRPS
		achieved[i] = r.AchievedRPS
	}
	mark := func(ch *svgplot.Chart) {
		if c.KneeRung >= 0 && c.KneeRung < len(xs) {
			ch.Marker(xs[c.KneeRung], "#b07818", "knee")
		}
		if c.CliffRung >= 0 && c.CliffRung < len(xs) {
			ch.Marker(xs[c.CliffRung], "#c0392b", "cliff")
		}
	}

	dch := svgplot.NewChart("Delivery & cached share", 760, 200)
	dch.XLabel, dch.YMax = xlabel, 1
	dch.Line("delivered", svgplot.PaletteColor(2), xs, del)
	dch.Line("cached", svgplot.PaletteColor(3), xs, cached)
	mark(dch)
	fig.Add(dch)

	lch := svgplot.NewChart("Latency (us)", 760, 200)
	lch.XLabel, lch.LogY = xlabel, true
	lch.Line("p50", svgplot.PaletteColor(0), xs, p50)
	lch.Line("p99", svgplot.PaletteColor(1), xs, p99)
	mark(lch)
	fig.Add(lch)
	panels := 2

	if c.Axis == "" || c.Axis == sweep.AxisRate {
		ach := svgplot.NewChart("Achieved vs offered (req/s)", 760, 200)
		ach.XLabel = "offered req/s"
		ach.Line("achieved", svgplot.PaletteColor(0), offered, achieved)
		ach.Line("offered", "#bbbbbb", offered, offered)
		mark(ach)
		fig.Add(ach)
		panels++
	}
	return panels, nil
}
