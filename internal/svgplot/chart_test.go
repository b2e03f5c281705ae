package svgplot

import (
	"strings"
	"testing"
)

// render draws the charts as one Figure document.
func render(t *testing.T, charts ...*Chart) string {
	t.Helper()
	var f Figure
	for _, c := range charts {
		f.Add(c)
	}
	var b strings.Builder
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestChartRendersSeriesAndLegend(t *testing.T) {
	c := NewChart("Throughput", 640, 220)
	c.XLabel = "seconds"
	c.Line("routes", "#112233", []float64{0, 1, 2}, []float64{10, 20, 15})
	c.Step("computed", "#445566", []float64{0, 1, 2}, []float64{5, 8, 6})
	c.Marker(1.5, "#c0392b", "fail")
	svg := render(t, c)

	for _, want := range []string{
		"<svg", "</svg>", "Throughput", "seconds",
		"routes", "computed", "fail",
		`stroke="#112233"`, `stroke="#445566"`,
		"stroke-dasharray", // the marker line
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("chart SVG lacks %q", want)
		}
	}
	// The line series draws L segments; the step series H/V segments.
	if !strings.Contains(svg, " L ") {
		t.Error("line series produced no L path segments")
	}
	if !strings.Contains(svg, " H ") || !strings.Contains(svg, " V ") {
		t.Error("step series produced no H/V path segments")
	}
}

func TestChartEmptyAndSinglePoint(t *testing.T) {
	empty := render(t, NewChart("empty", 0, 0))
	if !strings.Contains(empty, "no data") {
		t.Error("empty chart lacks the no-data note")
	}
	if !strings.Contains(empty, `width="640"`) {
		t.Error("zero sizes did not default")
	}

	one := NewChart("one", 320, 160)
	one.Step("s", "", []float64{3}, []float64{42})
	svg := render(t, one)
	if !strings.Contains(svg, "<circle") {
		t.Error("single-point series not marked with a circle")
	}
}

func TestChartMismatchedLengthsTrimmed(t *testing.T) {
	c := NewChart("trim", 320, 160)
	c.Line("s", "", []float64{0, 1, 2, 3}, []float64{1, 2})
	svg := render(t, c)
	// Only two points survive: one M and one L command.
	if strings.Count(svg, " L ") != 1 {
		t.Fatalf("trimmed series path wrong:\n%s", svg)
	}
}

func TestChartLogYTicks(t *testing.T) {
	c := NewChart("log", 400, 200)
	c.LogY = true
	c.Line("lat", "", []float64{0, 1, 2}, []float64{10, 1000, 100000})
	svg := render(t, c)
	// Decade ticks rendered compactly.
	for _, want := range []string{">10<", ">1000<", ">100k<"} {
		if !strings.Contains(svg, want) {
			t.Errorf("log chart lacks decade tick %q", want)
		}
	}
}

func TestChartEscapesText(t *testing.T) {
	c := NewChart("a <b> & c", 320, 160)
	c.Line("s<1>", "", []float64{0, 1}, []float64{1, 2})
	svg := render(t, c)
	if strings.Contains(svg, "<b>") || strings.Contains(svg, "s<1>") {
		t.Fatal("chart text not escaped")
	}
	if !strings.Contains(svg, "a &lt;b&gt; &amp; c") {
		t.Fatal("escaped title missing")
	}
}

func TestFigureStacksPanels(t *testing.T) {
	var f Figure
	f.Title = "trajectory"
	a := NewChart("top", 500, 200)
	a.Line("x", "", []float64{0, 1}, []float64{1, 2})
	b := NewChart("bottom", 640, 180)
	b.Step("y", "", []float64{0, 1}, []float64{3, 4})
	f.Add(a)
	f.Add(b)
	var sb strings.Builder
	if _, err := f.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()

	if !strings.Contains(svg, `width="640"`) {
		t.Error("figure width is not the widest panel")
	}
	// Panels render at distinct vertical offsets under the title row.
	if !strings.Contains(svg, `translate(0,24)`) {
		t.Error("first panel not offset below the figure title")
	}
	if !strings.Contains(svg, `translate(0,232)`) { // 24 + 200 + 8
		t.Error("second panel not stacked below the first")
	}
	for _, want := range []string{"trajectory", "top", "bottom"} {
		if !strings.Contains(svg, want) {
			t.Errorf("figure lacks %q", want)
		}
	}
}

func TestNiceStepAndTicks(t *testing.T) {
	cases := []struct {
		span, want float64
	}{
		{10, 2}, {100, 20}, {7, 1}, {0.5, 0.1}, {3000, 500},
	}
	for _, tc := range cases {
		if got := niceStep(tc.span); got != tc.want {
			t.Errorf("niceStep(%g) = %g; want %g", tc.span, got, tc.want)
		}
	}
	ticks := map[float64]string{
		2500000: "2.5M", 1000000: "1M", 12000: "12k", 150: "150", 3: "3", 0.25: "0.25",
	}
	for v, want := range ticks {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%g) = %q; want %q", v, got, want)
		}
	}
}
