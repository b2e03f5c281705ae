package serve

import (
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/svgplot"
)

// handleDash serves /debug/dash: a self-contained HTML page (inline
// SVG, zero external assets or scripts) charting the flight recorder's
// timeline — throughput, delivery and cache shares, repair durations
// by substrate, churn rates — with journal events overlaid as markers
// and tabulated below. ?refresh=N reloads every N seconds via a meta
// tag (default 2; 0 disables, for snapshotting a finished run).
func (s *Service) handleDash(w http.ResponseWriter, r *http.Request) {
	refresh := 2
	if v := r.URL.Query().Get("refresh"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad refresh %q", v))
			return
		}
		refresh = n
	}
	win := s.Timeline()
	events := s.journal.Tail(0)

	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<title>wasn flight recorder</title>\n")
	if refresh > 0 {
		fmt.Fprintf(&b, "<meta http-equiv=\"refresh\" content=\"%d\">\n", refresh)
	}
	b.WriteString(`<style>
body { font-family: system-ui, sans-serif; margin: 16px; color: #222; }
h1 { font-size: 18px; } h2 { font-size: 14px; margin: 18px 0 6px; }
table { border-collapse: collapse; font-size: 12px; }
th, td { border: 1px solid #ddd; padding: 2px 8px; text-align: right; }
th { background: #f5f5f5; } td.l { text-align: left; }
.muted { color: #777; font-size: 12px; }
</style></head><body>
`)
	st := s.Stats()
	fmt.Fprintf(&b, "<h1>wasn flight recorder</h1>\n<p class=\"muted\">%s — %d deployments, %d routes served, %d journal events; ",
		time.Now().Format(time.RFC3339), st.Deployments, st.Routes, s.journal.Total())
	if s.sampler == nil {
		b.WriteString("sampler <b>disabled</b> (start wasnd with -sample-every)")
	} else {
		fmt.Fprintf(&b, "sampling every %dms, %d points retained", win.EveryMS, len(win.TUnixMS))
	}
	b.WriteString("</p>\n")

	b.WriteString(dashCharts(&win, events))

	// Event table, newest first.
	b.WriteString("<h2>Events (newest first)</h2>\n")
	if len(events) == 0 {
		b.WriteString("<p class=\"muted\">journal empty — no builds or topology changes yet</p>\n")
	} else {
		b.WriteString("<table><tr><th>seq</th><th>time</th><th>kind</th><th>deployment</th><th>req id</th><th>nodes</th><th>dirty</th><th>epoch</th><th>total</th><th>safety</th><th>bound</th><th>planar</th></tr>\n")
		const maxRows = 40
		for i := len(events) - 1; i >= 0 && i >= len(events)-maxRows; i-- {
			ev := events[i]
			fmt.Fprintf(&b,
				"<tr><td>%d</td><td>%s</td><td class=\"l\">%s</td><td class=\"l\">%s</td><td class=\"l\">%s</td><td>%d</td><td>%d</td><td>%d</td><td>%dus</td><td>%dus</td><td>%dus</td><td>%dus</td></tr>\n",
				ev.Seq, time.UnixMilli(ev.UnixMS).Format("15:04:05.000"),
				html.EscapeString(ev.Kind.String()), html.EscapeString(ev.Deployment), html.EscapeString(ev.RequestID),
				ev.Nodes, ev.Dirty, ev.Epoch,
				ev.DurationUS, ev.SafetyUS, ev.BoundUS, ev.PlanarUS)
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("</body></html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// dashCharts renders the timeline window as inline SVG panels with
// journal events overlaid as vertical markers.
func dashCharts(win *obs.TimelineWindow, events []obs.Event) string {
	if len(win.TUnixMS) == 0 {
		return "<p class=\"muted\">no timeline samples yet</p>\n"
	}
	t0 := win.TUnixMS[0]
	xs := make([]float64, len(win.TUnixMS))
	for i, t := range win.TUnixMS {
		xs[i] = float64(t-t0) / 1000
	}
	pts := func(name string) []float64 {
		if s := win.Find(name); s != nil {
			return s.Points
		}
		return nil
	}
	mark := func(c *svgplot.Chart) {
		for _, ev := range events {
			x := float64(ev.UnixMS-t0) / 1000
			if x < 0 {
				continue
			}
			color := "#c0392b"
			if ev.Kind == obs.EventRevive {
				color = "#27ae60"
			} else if ev.Kind == obs.EventMove {
				color = "#8e44ad"
			}
			c.Marker(x, color, "")
		}
	}

	var fig strings.Builder
	panel := func(c *svgplot.Chart) {
		mark(c)
		fig.WriteString("<div>")
		fig.WriteString(c.String())
		fig.WriteString("</div>\n")
	}

	thru := svgplot.NewChart("Throughput (req/s)", 900, 200)
	thru.XLabel = "seconds"
	thru.Step("routes/s", svgplot.PaletteColor(0), xs, pts("routes_per_s"))
	thru.Step("computed/s", svgplot.PaletteColor(1), xs, pts("computed_per_s"))
	panel(thru)

	share := svgplot.NewChart("Delivery & cache-hit share", 900, 180)
	share.XLabel = "seconds"
	share.YMax = 1
	share.Step("delivered", svgplot.PaletteColor(2), xs, pts("delivered_share"))
	share.Step("cache hits", svgplot.PaletteColor(3), xs, pts("cache_hit_share"))
	panel(share)

	lat := svgplot.NewChart("HTTP p99 (us, per sample window)", 900, 180)
	lat.XLabel = "seconds"
	lat.Step("http p99", svgplot.PaletteColor(4), xs, pts("http_p99_us"))
	panel(lat)

	rep := svgplot.NewChart("Repair p99 by substrate (us, per sample window)", 900, 200)
	rep.XLabel = "seconds"
	rep.Step("total", svgplot.PaletteColor(0), xs, pts("repair_p99_us"))
	rep.Step("safety", svgplot.PaletteColor(1), xs, pts("repair_safety_p99_us"))
	rep.Step("bound", svgplot.PaletteColor(2), xs, pts("repair_bound_p99_us"))
	rep.Step("planar", svgplot.PaletteColor(3), xs, pts("repair_planar_p99_us"))
	panel(rep)

	churn := svgplot.NewChart("Churn (nodes/s)", 900, 180)
	churn.XLabel = "seconds"
	churn.Step("failed", svgplot.PaletteColor(1), xs, pts("failed_nodes_per_s"))
	churn.Step("revived", svgplot.PaletteColor(2), xs, pts("revived_nodes_per_s"))
	churn.Step("moved", svgplot.PaletteColor(4), xs, pts("moved_nodes_per_s"))
	panel(churn)

	return fig.String()
}
