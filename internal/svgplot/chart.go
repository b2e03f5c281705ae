package svgplot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart is a generic 2-D time-series/step chart: named line or step
// series over a shared x-axis, optional vertical event markers, nice
// axis ticks, and a legend — still only the standard library, like
// Canvas. It backs the wasnd -render trajectory figures.
type Chart struct {
	Title  string
	XLabel string
	// LogY plots the y-axis on a log10 scale (non-positive values are
	// clamped to the smallest positive value present).
	LogY bool
	// YMax forces the y-axis top (0: autoscale to the data).
	YMax float64

	width, height int
	series        []chartSeries
	markers       []chartMarker
}

type chartSeries struct {
	name  string
	color string
	step  bool
	xs    []float64
	ys    []float64
}

type chartMarker struct {
	x     float64
	color string
	label string
}

// NewChart returns an empty chart of the given pixel size (defaults
// 640×220 when non-positive).
func NewChart(title string, width, height int) *Chart {
	if width <= 0 {
		width = 640
	}
	if height <= 0 {
		height = 220
	}
	return &Chart{Title: title, width: width, height: height}
}

// palette is the default series color cycle, so the panels of a
// figure look alike.
var palette = []string{"#1668aa", "#d1494e", "#2d8a57", "#b07818", "#7a4fa3", "#47a0b5", "#999999"}

// PaletteColor cycles the default palette.
func PaletteColor(i int) string { return palette[i%len(palette)] }

// Line adds a straight-line series. xs and ys must be the same length;
// the shorter tail is ignored if they differ.
func (c *Chart) Line(name, color string, xs, ys []float64) {
	c.add(name, color, false, xs, ys)
}

// Step adds a step series (the value holds until the next sample —
// the honest rendering of per-window rates and quantiles).
func (c *Chart) Step(name, color string, xs, ys []float64) {
	c.add(name, color, true, xs, ys)
}

func (c *Chart) add(name, color string, step bool, xs, ys []float64) {
	if len(xs) > len(ys) {
		xs = xs[:len(ys)]
	}
	if len(ys) > len(xs) {
		ys = ys[:len(xs)]
	}
	if color == "" {
		color = PaletteColor(len(c.series))
	}
	c.series = append(c.series, chartSeries{name: name, color: color, step: step, xs: xs, ys: ys})
}

// Marker draws a labeled vertical line at x — churn events on a
// timeline, the knee/cliff rungs on a capacity curve.
func (c *Chart) Marker(x float64, color, label string) {
	if color == "" {
		color = "#c0392b"
	}
	c.markers = append(c.markers, chartMarker{x: x, color: color, label: label})
}

// chart margins (pixels): left holds y tick labels, bottom x ticks,
// top the title, right breathing room.
const (
	marL = 52
	marR = 12
	marT = 26
	marB = 34
)

// bounds computes the data extent across all series and markers.
func (c *Chart) bounds() (x0, x1, y0, y1 float64, ok bool) {
	first := true
	for _, s := range c.series {
		for i := range s.xs {
			if first {
				x0, x1, y0, y1 = s.xs[i], s.xs[i], s.ys[i], s.ys[i]
				first = false
				continue
			}
			x0 = math.Min(x0, s.xs[i])
			x1 = math.Max(x1, s.xs[i])
			y0 = math.Min(y0, s.ys[i])
			y1 = math.Max(y1, s.ys[i])
		}
	}
	if first {
		return 0, 0, 0, 0, false
	}
	for _, m := range c.markers {
		x0 = math.Min(x0, m.x)
		x1 = math.Max(x1, m.x)
	}
	return x0, x1, y0, y1, true
}

// niceStep picks a 1/2/5×10^k step that yields 4–9 ticks over span.
func niceStep(span float64) float64 {
	if span <= 0 || math.IsNaN(span) || math.IsInf(span, 0) {
		return 1
	}
	raw := span / 5
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	switch {
	case raw/mag < 1.5:
		return mag
	case raw/mag < 3.5:
		return 2 * mag
	case raw/mag < 7.5:
		return 5 * mag
	}
	return 10 * mag
}

// fmtTick renders a tick value compactly (1.2k, 3.4M for big values).
func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return strings.TrimSuffix(fmt.Sprintf("%.1f", v/1e6), ".0") + "M"
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 100 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

// render emits the chart as a <g> translated to (ox, oy), so a Figure
// can stack several charts in one document.
func (c *Chart) render(b *strings.Builder, ox, oy int) {
	fmt.Fprintf(b, `<g transform="translate(%d,%d)">`+"\n", ox, oy)
	defer b.WriteString("</g>\n")
	fmt.Fprintf(b, `<rect width="%d" height="%d" fill="white"/>`+"\n", c.width, c.height)
	if c.Title != "" {
		fmt.Fprintf(b, `<text x="%d" y="16" font-size="13" font-weight="bold" fill="#222">%s</text>`+"\n",
			marL, escape(c.Title))
	}
	pw, ph := c.width-marL-marR, c.height-marT-marB
	x0, x1, y0, y1, ok := c.bounds()
	if !ok {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="12" fill="#888">no data</text>`+"\n",
			marL+pw/2-24, marT+ph/2)
		return
	}
	if c.YMax > 0 {
		y1 = c.YMax
	}
	if y0 > 0 && !c.LogY {
		y0 = 0 // rates and counts read best anchored at zero
	}
	yT := func(v float64) float64 { return v }
	if c.LogY {
		minPos := math.Inf(1)
		for _, s := range c.series {
			for _, v := range s.ys {
				if v > 0 && v < minPos {
					minPos = v
				}
			}
		}
		if math.IsInf(minPos, 1) {
			minPos = 1
		}
		yT = func(v float64) float64 {
			if v < minPos {
				v = minPos
			}
			return math.Log10(v)
		}
		y0, y1 = yT(math.Max(y0, minPos)), yT(math.Max(y1, minPos))
	}
	if x1 == x0 {
		x1 = x0 + 1
	}
	if y1 == y0 {
		y1 = y0 + 1
	}
	px := func(x float64) float64 { return float64(marL) + (x-x0)/(x1-x0)*float64(pw) }
	py := func(y float64) float64 { return float64(marT) + (1-(yT(y)-y0)/(y1-y0))*float64(ph) }

	// Frame + gridded ticks.
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#ccc"/>`+"\n",
		marL, marT, pw, ph)
	if c.LogY {
		for e := math.Ceil(y0); e <= math.Floor(y1); e++ {
			v := math.Pow(10, e)
			yp := float64(marT) + (1-(e-y0)/(y1-y0))*float64(ph)
			fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n", marL, yp, marL+pw, yp)
			fmt.Fprintf(b, `<text x="%d" y="%.1f" font-size="10" fill="#666" text-anchor="end">%s</text>`+"\n",
				marL-4, yp+3, fmtTick(v))
		}
	} else {
		step := niceStep(y1 - y0)
		for v := math.Ceil(y0/step) * step; v <= y1+step/1e6; v += step {
			yp := py(v)
			fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#eee"/>`+"\n", marL, yp, marL+pw, yp)
			fmt.Fprintf(b, `<text x="%d" y="%.1f" font-size="10" fill="#666" text-anchor="end">%s</text>`+"\n",
				marL-4, yp+3, fmtTick(v))
		}
	}
	xstep := niceStep(x1 - x0)
	for v := math.Ceil(x0/xstep) * xstep; v <= x1+xstep/1e6; v += xstep {
		xp := px(v)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="10" fill="#666" text-anchor="middle">%s</text>`+"\n",
			xp, marT+ph+14, fmtTick(v))
	}
	if c.XLabel != "" {
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11" fill="#444" text-anchor="middle">%s</text>`+"\n",
			marL+pw/2, c.height-4, escape(c.XLabel))
	}

	// Markers under the series, labels along the top edge.
	for _, m := range c.markers {
		xp := px(m.x)
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-dasharray="3 3" stroke-opacity="0.7"/>`+"\n",
			xp, marT, xp, marT+ph, m.color)
		if m.label != "" {
			fmt.Fprintf(b, `<text x="%.1f" y="%d" font-size="9" fill="%s">%s</text>`+"\n",
				xp+2, marT+9, m.color, escape(m.label))
		}
	}

	for _, s := range c.series {
		if len(s.xs) == 0 {
			continue
		}
		var d strings.Builder
		for i := range s.xs {
			xp, yp := px(s.xs[i]), py(s.ys[i])
			if i == 0 {
				fmt.Fprintf(&d, "M %.1f %.1f", xp, yp)
				continue
			}
			if s.step {
				fmt.Fprintf(&d, " H %.1f V %.1f", xp, yp)
			} else {
				fmt.Fprintf(&d, " L %.1f %.1f", xp, yp)
			}
		}
		fmt.Fprintf(b, `<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", d.String(), s.color)
		if len(s.xs) == 1 {
			// A single sample has no path length; mark the point.
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n",
				px(s.xs[0]), py(s.ys[0]), s.color)
		}
	}

	// Legend, top-right inside the frame.
	lx, ly := marL+pw-8, marT+8
	for i := len(c.series) - 1; i >= 0; i-- {
		s := c.series[i]
		if s.name == "" {
			continue
		}
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="%s" text-anchor="end">%s</text>`+"\n",
			lx-14, ly+4, "#333", escape(s.name))
		fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			lx-12, ly, lx, ly, s.color)
		ly += 13
	}
}

// Figure stacks charts vertically into one SVG document — the shape of
// a multi-panel trajectory figure.
type Figure struct {
	Title  string
	charts []*Chart
}

// Add appends a chart panel.
func (f *Figure) Add(c *Chart) { f.charts = append(f.charts, c) }

// WriteTo emits the stacked document.
func (f *Figure) WriteTo(w io.Writer) (int64, error) {
	width, height := 0, 0
	top := 0
	if f.Title != "" {
		top = 24
	}
	for _, c := range f.charts {
		if c.width > width {
			width = c.width
		}
		height += c.height + 8
	}
	if width == 0 {
		width = 640
	}
	height += top
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")
	if f.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="17" font-size="14" font-weight="bold" fill="#111">%s</text>`+"\n",
			8, escape(f.Title))
	}
	y := top
	for _, c := range f.charts {
		c.render(&b, 0, y)
		y += c.height + 8
	}
	b.WriteString("</svg>\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}
