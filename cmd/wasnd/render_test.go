package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRenderRejectsFrozenArtifacts: the hand-shaped aggregates at the
// repo root are frozen history, not render input. Every one of them is
// refused with an error naming the two documents -render accepts.
func TestRenderRejectsFrozenArtifacts(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no frozen artifacts in the tree")
	}
	dir := t.TempDir()
	for _, in := range files {
		var out bytes.Buffer
		err := run([]string{"-render", in, "-out", filepath.Join(dir, filepath.Base(in)+".svg")}, &out)
		if err == nil || !strings.Contains(err.Error(), "workload report") ||
			!strings.Contains(err.Error(), "capacity curve") {
			t.Errorf("%s: err = %v; want a refusal naming both accepted kinds", in, err)
		}
	}
}

// TestRenderLoadReportRoundTrip runs a tiny churny load and renders
// the resulting report — the report must embed the server's journal,
// the summary must count it, and the figure must include the
// throughput and per-phase panels.
func TestRenderLoadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	scFile := filepath.Join(dir, "sc.json")
	repFile := filepath.Join(dir, "rep.json")
	svgFile := filepath.Join(dir, "rep.svg")
	sc := `{
  "name": "render-rt",
  "deployment": {"model": "fa", "n": 300, "seed": 7},
  "algorithm": "SLGF2",
  "arrival": {"process": "poisson", "rate_hz": 800, "duration_ms": 600},
  "traffic": {"pattern": "uniform"},
  "churn": [{"at_ms": 250, "fail_random": 3}],
  "warmup_requests": 50
}`
	if err := os.WriteFile(scFile, []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-load", "-scenario", scFile, "-out", repFile}, &out)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out.String())
	}
	var rep struct {
		Journal []any `json:"journal"`
	}
	data, err := os.ReadFile(repFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Journal) == 0 {
		t.Fatal("report lacks its journal")
	}
	if want := fmt.Sprintf("journal: %d events", len(rep.Journal)); !strings.Contains(out.String(), want) {
		t.Fatalf("summary lacks %q:\n%s", want, out.String())
	}

	out.Reset()
	if err := run([]string{"-render", repFile, "-out", svgFile}, &out); err != nil {
		t.Fatalf("render: %v\n%s", err, out.String())
	}
	svg, err := os.ReadFile(svgFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Client throughput", "Per-phase p99"} {
		if !strings.Contains(string(svg), want) {
			t.Fatalf("rendered figure lacks panel %q", want)
		}
	}
}

// TestRenderCurve renders a handcrafted capacity-curve artifact with
// knee and cliff markers.
func TestRenderCurve(t *testing.T) {
	dir := t.TempDir()
	curveFile := filepath.Join(dir, "curve.json")
	svgFile := filepath.Join(dir, "curve.svg")
	curve := `{
  "name": "tiny", "scenario": "s", "driver": "inprocess",
  "deployment": {"model": "fa", "n": 300, "seed": 7},
  "algorithm": "SLGF2", "mode": "geometric",
  "knee_tolerance": 0.05, "cliff_factor": 4,
  "rungs": [
    {"offered_rps": 100, "achieved_rps": 100, "requests": 10, "delivery_rate": 1, "cached_share": 0.5,
     "latency": {"p50_us": 10, "p90_us": 20, "p99_us": 30, "p999_us": 40, "mean_us": 12, "max_us": 50},
     "elapsed_ms": 100},
    {"offered_rps": 400, "achieved_rps": 250, "requests": 25, "delivery_rate": 0.9, "cached_share": 0.6,
     "latency": {"p50_us": 40, "p90_us": 100, "p99_us": 200, "p999_us": 300, "mean_us": 60, "max_us": 400},
     "elapsed_ms": 100, "saturated": true}
  ],
  "knee_rung": 1, "knee_rps": 400, "cliff_rung": 1, "cliff_rps": 400
}`
	if err := os.WriteFile(curveFile, []byte(curve), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-render", curveFile, "-out", svgFile}, &out); err != nil {
		t.Fatalf("render: %v\n%s", err, out.String())
	}
	svg, err := os.ReadFile(svgFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Delivery &amp; cached share", "Latency", "Achieved vs offered", "knee", "cliff"} {
		if !strings.Contains(string(svg), want) {
			t.Fatalf("curve figure lacks %q", want)
		}
	}
}

// TestRenderRejectsMalformed pins the schema-drift gate: a top-level
// report or curve with an unknown, mistyped or missing field fails the
// render, and so does anything that is neither.
func TestRenderRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, doc, wantErr string
	}{
		{"report-unknown-field", `{"scenario": "s", "timeline": [{"t_ms": 0}],
			"server_stats": {"per_deployment": [{"name": "d", "repairs": 1, "rebuilds": 0}]}}`, "unknown field"},
		{"report-mistyped", `{"scenario": "s", "timeline": [{"t_ms": "zero"}]}`, "cannot unmarshal"},
		{"report-no-buckets", `{"scenario": "s", "timeline": []}`, "no timeline buckets"},
		{"curve-unknown-field", `{"name": "c", "rungs": [{"offered_rps": 10, "p99_us": 5}]}`, "unknown field"},
		{"curve-mistyped", `{"name": "c", "rungs": [{"offered_rps": 10, "delivery_rate": "high"}]}`, "cannot unmarshal"},
		{"curve-no-rungs", `{"name": "c", "rungs": []}`, "no rungs"},
		{"neither", `{"bench": {"ns_per_op": 120}}`, "neither a workload report"},
		{"not-object", `[1, 2, 3]`, "bad JSON"},
		{"bad-json", `{`, "bad JSON"},
	}
	for _, tc := range cases {
		in := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(in, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run([]string{"-render", in, "-out", filepath.Join(dir, tc.name+".svg")}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v; want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// Mode exclusivity.
	var out bytes.Buffer
	if err := run([]string{"-render", "x.json", "-load"}, &out); err == nil ||
		!strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("-render combined with -load accepted: %v", err)
	}
}
