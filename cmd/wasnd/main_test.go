package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/sweep"
	"github.com/straightpath/wasn/internal/workload"
)

// TestReportExitErr pins the -load exit-code contract: request errors
// and shed load surface as a nonzero exit, a clean run does not.
func TestReportExitErr(t *testing.T) {
	if err := reportExitErr(&workload.Report{Requests: 10, Delivered: 10}); err != nil {
		t.Fatalf("clean run mapped to exit error: %v", err)
	}
	err := reportExitErr(&workload.Report{Requests: 10, Errors: 2, ErrorSample: "boom"})
	if err == nil || !strings.Contains(err.Error(), "2 request errors") {
		t.Fatalf("request errors not surfaced: %v", err)
	}
	err = reportExitErr(&workload.Report{Requests: 10, Dropped: 5})
	if err == nil || !strings.Contains(err.Error(), "shed 5") {
		t.Fatalf("shed load not surfaced: %v", err)
	}
}

// TestLoadRecordReplayCLI runs the full CLI loop: -load -record a tiny
// run, then -replay -verify the trace — the perf-gate's replay leg.
func TestLoadRecordReplayCLI(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.trace.jsonl")
	var out bytes.Buffer
	err := run([]string{"-load", "-preset", "steady", "-n", "300", "-seed", "7",
		"-rate", "800", "-duration", "300", "-record", trace}, &out)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "trace written to") {
		t.Fatalf("no trace confirmation in output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-replay", trace, "-verify"}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replay verified") {
		t.Fatalf("replay did not verify:\n%s", out.String())
	}
}

// TestSweepCLI runs a tiny sweep through the CLI, checks the curve
// artifact, and gates fresh sweeps against two baselines rewritten from
// it whose verdicts no live curve can change: one it cannot regress
// against, one it must. The band arithmetic itself is pinned in
// internal/sweep's Compare tests, and the live knee check is the CI
// perf gate's; this test pins the gate plumbing.
func TestSweepCLI(t *testing.T) {
	dir := t.TempDir()
	cfgFile := filepath.Join(dir, "sweep.json")
	curveFile := filepath.Join(dir, "curve.json")
	cfg := `{
  "name": "cli-tiny",
  "scenario": {
    "name": "cli-tiny",
    "deployment": {"model": "fa", "n": 300, "seed": 7},
    "algorithm": "SLGF2",
    "arrival": {"process": "poisson", "rate_hz": 500, "duration_ms": 150},
    "traffic": {"pattern": "uniform", "pairs": 64},
    "warmup_requests": 100
  },
  "min_rate_hz": 500,
  "max_rate_hz": 2000,
  "steps": 3
}`
	if err := os.WriteFile(cfgFile, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-sweep", cfgFile, "-out", curveFile}, &out); err != nil {
		t.Fatalf("sweep: %v\n%s", err, out.String())
	}
	curve, err := sweep.ParseCurveFile(curveFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Rungs) != 3 {
		t.Fatalf("curve has %d rungs; want 3", len(curve.Rungs))
	}
	baseline := func(name string, edit func(c *sweep.CapacityCurve)) string {
		c, err := sweep.ParseCurveFile(curveFile)
		if err != nil {
			t.Fatal(err)
		}
		edit(c)
		path := filepath.Join(dir, name)
		if err := c.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Knee at the first rung, every rung saturated with nothing
	// delivered and a huge p99: no anchor check can fire, and no live
	// knee sits below the lowest rung.
	lenient := baseline("lenient.json", func(c *sweep.CapacityCurve) {
		c.KneeRung, c.KneeRPS = 0, c.Rungs[0].OfferedRPS
		for i := range c.Rungs {
			c.Rungs[i].Saturated, c.Rungs[i].DeliveryRate, c.Rungs[i].Latency.P99us = true, 0, 1e12
		}
	})
	out.Reset()
	if err := run([]string{"-sweep", cfgFile, "-baseline", lenient}, &out); err != nil {
		t.Fatalf("gate against a baseline no curve can regress failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("no gate confirmation in output:\n%s", out.String())
	}

	// A p99 of 1µs at every rung and a 1% band: every live curve's
	// anchor p99 regresses.
	strict := baseline("strict.json", func(c *sweep.CapacityCurve) {
		for i := range c.Rungs {
			c.Rungs[i].Latency.P99us = 1
		}
	})
	out.Reset()
	err = run([]string{"-sweep", cfgFile, "-baseline", strict, "-p99-tol", "0.01"}, &out)
	if err == nil || !strings.Contains(err.Error(), "perf regression") {
		t.Fatalf("gate against a 1us-p99 baseline passed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION: p99") {
		t.Fatalf("no p99 regression reported:\n%s", out.String())
	}
}

// TestCheckMetricsCLI drives a tiny HTTP-mode load against an in-test
// wasnd handler (with a CPU profile and live progress on), then runs
// the -check-metrics gate against its exposition — the exact probe the
// CI smoke job performs mid-run.
func TestCheckMetricsCLI(t *testing.T) {
	svc := serve.New(serve.Config{TraceSampleEvery: 4, StretchSampleEvery: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	dir := t.TempDir()
	profFile := filepath.Join(dir, "cpu.pprof")
	var out bytes.Buffer
	err := run([]string{"-load", "-preset", "steady", "-n", "300", "-seed", "7",
		"-rate", "800", "-duration", "300",
		"-driver", "http", "-target", ts.URL,
		"-cpuprofile", profFile, "-progress"}, &out)
	if err != nil {
		t.Fatalf("load over http: %v\n%s", err, out.String())
	}
	if st, err := os.Stat(profFile); err != nil || st.Size() == 0 {
		t.Fatalf("-cpuprofile wrote nothing: %v", err)
	}

	out.Reset()
	if err := run([]string{"-check-metrics", ts.URL + "/metrics"}, &out); err != nil {
		t.Fatalf("check-metrics gate failed on a healthy server: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "metrics ok") {
		t.Fatalf("no gate confirmation:\n%s", out.String())
	}

	// An exposition missing the contract series must fail the gate.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP up up\n# TYPE up gauge\nup 1\n")
	}))
	defer empty.Close()
	if err := run([]string{"-check-metrics", empty.URL + "/metrics"}, &out); err == nil ||
		!strings.Contains(err.Error(), "missing required series") {
		t.Fatalf("gate passed an exposition without the contract series: %v", err)
	}
}

// TestCheckMetricsBoundedWait: a server that accepts the scrape and
// never answers fails the gate within the client timeout instead of
// hanging the CI probe.
func TestCheckMetricsBoundedWait(t *testing.T) {
	t.Parallel()
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer stuck.Close()
	start := time.Now()
	err := runCheckMetrics(io.Discard, stuck.URL+"/metrics", false)
	if elapsed := time.Since(start); err == nil || elapsed > 10*time.Second {
		t.Fatalf("scrape of a silent server: err %v after %v; want an error within 10s", err, elapsed)
	}
}

// TestFlagValidation pins the new flags' rejection paths: bad log
// flags and -check-metrics mode exclusivity are errors, not no-ops.
func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-log-level", "shouty"}, &out); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("bad -log-level accepted: %v", err)
	}
	if err := run([]string{"-log-format", "xml"}, &out); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Fatalf("bad -log-format accepted: %v", err)
	}
	if err := run([]string{"-check-metrics", "http://x/metrics", "-load"}, &out); err == nil ||
		!strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("-check-metrics combined with -load accepted: %v", err)
	}
	if err := run([]string{"-fleet"}, &out); err == nil || !strings.Contains(err.Error(), "-check-metrics") {
		t.Fatalf("-fleet without -check-metrics accepted: %v", err)
	}
	if err := run([]string{"-load", "-router"}, &out); err == nil || !strings.Contains(err.Error(), "server mode") {
		t.Fatalf("-router combined with -load accepted: %v", err)
	}
	if err := run([]string{"-router", "-join", "http://x"}, &out); err == nil || !strings.Contains(err.Error(), "replica flags") {
		t.Fatalf("-router combined with -join accepted: %v", err)
	}
}

// syncBuffer is a concurrency-safe io.Writer for capturing the stdout
// of run() invocations living in goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// spawnServer runs the CLI server in a goroutine and returns its base
// URL (parsed from the stdout "listening on" line — the -addr :0
// contract) plus the exit channel.
func spawnServer(t *testing.T, args []string) (string, <-chan error) {
	t.Helper()
	out := &syncBuffer{}
	errCh := make(chan error, 1)
	go func() { errCh <- run(args, out) }()
	var addr string
	waitFor(t, 10*time.Second, "listen line from "+strings.Join(args, " "), func() bool {
		select {
		case err := <-errCh:
			t.Fatalf("server %v exited early: %v\n%s", args, err, out.String())
		default:
		}
		m := listenRE.FindStringSubmatch(out.String())
		if m == nil {
			return false
		}
		addr = m[1]
		return true
	})
	base := "http://" + addr
	waitFor(t, 10*time.Second, "readyz on "+base, func() bool {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return base, errCh
}

// drain sends the process SIGTERM (every spawned server has its
// NotifyContext installed once it answers HTTP) and asserts every
// server exits cleanly.
func drain(t *testing.T, servers map[string]<-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, ch := range servers {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s exited with error: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s did not drain after SIGTERM", name)
		}
	}
}

func postCLI(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %v", url, resp.StatusCode, v)
	}
	return v
}

func getCLI(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %v", url, resp.StatusCode, v)
	}
	return v
}

// TestFleetServerCLI boots a router and two replicas through the real
// CLI entry point (ephemeral ports throughout), drives churn through
// the proxy tier, gates the fleet metrics contract, drains the fleet
// with SIGTERM, and reboots a replica from its snapshot — asserting
// the restored registry answers route-identically. This is the
// in-process twin of the CI fleet-chaos script.
func TestFleetServerCLI(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	routerURL, routerErr := spawnServer(t, []string{"-router", "-addr", "127.0.0.1:0"})
	rep1URL, rep1Err := spawnServer(t, []string{"-addr", "127.0.0.1:0", "-join", routerURL,
		"-replica-id", "r1", "-snapshot-dir", dir1, "-binary-port", "0"})
	_, rep2Err := spawnServer(t, []string{"-addr", "127.0.0.1:0", "-join", routerURL,
		"-replica-id", "r2", "-snapshot-dir", dir2})

	// The replica /readyz overlays the resolved addresses.
	ready := getCLI(t, rep1URL+"/readyz")
	if ready["addr"] != strings.TrimPrefix(rep1URL, "http://") {
		t.Fatalf("readyz addr overlay = %v; want %s", ready["addr"], rep1URL)
	}
	if ready["binary_addr"] == "" || ready["binary_addr"] == nil {
		t.Fatalf("readyz missing binary_addr: %v", ready)
	}

	waitFor(t, 10*time.Second, "both replicas in /stats", func() bool {
		reps, _ := getCLI(t, routerURL+"/stats")["replicas"].([]any)
		return len(reps) == 2
	})

	// Churn through the proxy tier.
	postCLI(t, routerURL+"/deploy", `{"name":"FA-200-9","model":"fa","n":200,"seed":9,"build":true}`)
	postCLI(t, routerURL+"/fail", `{"deployment":"FA-200-9","nodes":[3,4]}`)
	want := postCLI(t, routerURL+"/route", `{"deployment":"FA-200-9","algorithm":"SLGF2","src":0,"dst":150}`)

	// The metrics gate: the router exposition satisfies the fleet
	// contract, a replica exposition must not.
	var out bytes.Buffer
	if err := run([]string{"-check-metrics", routerURL + "/metrics", "-fleet"}, &out); err != nil {
		t.Fatalf("fleet metrics gate failed on the router: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "metrics ok") {
		t.Fatalf("no gate confirmation:\n%s", out.String())
	}
	if err := run([]string{"-check-metrics", rep1URL + "/metrics", "-fleet"}, &out); err == nil ||
		!strings.Contains(err.Error(), "missing required series") {
		t.Fatalf("fleet gate passed a replica exposition: %v", err)
	}

	// The owner's snapshotter must have persisted the churned registry.
	owner := getCLI(t, routerURL+"/owner?deployment=FA-200-9")
	ownerDir := dir1
	if owner["id"] == "r2" {
		ownerDir = dir2
	}
	snapFile := filepath.Join(ownerDir, "wasnd.snap")
	waitFor(t, 10*time.Second, "snapshot file "+snapFile, func() bool {
		st, err := os.Stat(snapFile)
		return err == nil && st.Size() > 0
	})

	drain(t, map[string]<-chan error{"router": routerErr, "replica r1": rep1Err, "replica r2": rep2Err})

	// Reboot a replica from the owner's snapshot: the restored registry
	// must carry the failed set and answer route-identically.
	rebootURL, rebootErr := spawnServer(t, []string{"-addr", "127.0.0.1:0", "-snapshot-dir", ownerDir})
	state := getCLI(t, rebootURL+"/state")
	states, _ := state["states"].([]any)
	if len(states) != 1 {
		t.Fatalf("restored replica has %d deployments; want 1 (%v)", len(states), state)
	}
	st := states[0].(map[string]any)
	if st["name"] != "FA-200-9" || len(st["failed"].([]any)) != 2 {
		t.Fatalf("restored state lost the churn history: %v", st)
	}
	got := postCLI(t, rebootURL+"/route", `{"deployment":"FA-200-9","algorithm":"SLGF2","src":0,"dst":150}`)
	if got["delivered"] != want["delivered"] || fmt.Sprint(got["hops"]) != fmt.Sprint(want["hops"]) {
		t.Fatalf("restored route diverged: %v != %v", got, want)
	}
	drain(t, map[string]<-chan error{"rebooted replica": rebootErr})
}

// TestServerDropsSlowHeaders: a client that sends half a request header
// and stalls is disconnected once the header timeout runs out.
func TestServerDropsSlowHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /route HTTP/1.1\r\nHost: wasnd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	n, err := conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if err != io.EOF {
		t.Fatalf("read after %v: %d bytes, err %v; want the server to close the connection", elapsed, n, err)
	}
	if elapsed < readHeaderTimeout-time.Second || elapsed > readHeaderTimeout+2*time.Second {
		t.Fatalf("connection closed after %v; want about the header timeout %v", elapsed, readHeaderTimeout)
	}
}
