// Command wasnd serves routes over deployed sensor networks: an
// HTTP/JSON frontend on the internal/serve routing service (deployment
// registry, sharded set-associative route cache, batch engine,
// incremental substrate repair).
//
// Server mode (SIGINT/SIGTERM drain in-flight requests and exit):
//
//	wasnd -addr :8080
//	curl -d '{"model":"fa","n":500,"seed":42,"build":true}' localhost:8080/deploy
//	curl -d '{"deployment":"FA-500-42","algorithm":"SLGF2","src":3,"dst":441}' localhost:8080/route
//	curl -d '{"deployment":"FA-500-42","nodes":[17,23]}' localhost:8080/fail
//	curl localhost:8080/stats
//
// The server is observable first-class: /metrics serves a
// Prometheus-style text exposition, /traces the sampled route decision
// traces (-trace-sample, plus per-request traces via "trace": true on
// /route), -pprof mounts net/http/pprof, and -log-level/-log-format
// select structured slog output with per-request IDs:
//
//	wasnd -addr :8080 -pprof -trace-sample 64 -stretch-sample 16 -log-format json -log-level debug
//	curl localhost:8080/metrics
//	wasnd -check-metrics http://localhost:8080/metrics   # CI gate: required series present?
//
// Every build/fail/revive/move lands in the /events journal with
// request IDs and per-substrate repair spans, and -render turns a load
// report (-load/-replay -out) or a capacity curve (-sweep -out) into an
// SVG trajectory figure:
//
//	curl 'localhost:8080/events?kind=fail'
//	wasnd -render report.json -out report.svg
//
// Load mode is a thin shim over the internal/workload scenario engine:
// canned presets or scenario JSON files compose an arrival process
// (closed-loop, open-loop Poisson, bursty), a traffic matrix (uniform,
// zipf, convergecast), and a churn schedule, driven either in-process
// or over HTTP against a running wasnd:
//
//	wasnd -load -preset convergecast
//	wasnd -load -scenario examples/scenarios/churn-storm.json -out report.json
//	wasnd -load -preset steady -driver http -target http://localhost:8080
//
// Sweep mode runs a scenario at a ladder of offered rates
// (internal/sweep) and emits a CapacityCurve JSON locating the
// capacity knee and p99 cliff, optionally gating against a baseline
// curve; record/replay capture a run's exact (src, dst, intended-at)
// request stream plus churn firings to a JSONL trace and re-issue it
// bit-for-bit:
//
//	wasnd -sweep examples/scenarios/sweep-capacity.json -out curve.json
//	wasnd -sweep .github/perf/sweep-ci.json -baseline .github/perf/baseline-curve.json -normalize
//	wasnd -load -preset steady -record steady.trace.jsonl
//	wasnd -replay steady.trace.jsonl -verify
//
// Fleet mode shards deployments across replicas (internal/fleet):
// -router runs the consistent-hash proxy tier, replicas join it with
// -join and serve the length-prefixed binary batch transport on
// -binary-port; -snapshot-dir persists a versioned binary snapshot of
// the registry on every state change and restores it on boot, so a
// restarted replica answers route-identically. -addr :0 picks a free
// port and prints it on stdout (and in /readyz) so scripts never race
// on fixed ports:
//
//	wasnd -router -addr :9090
//	wasnd -addr :0 -join http://localhost:9090 -replica-id r1 -snapshot-dir /var/lib/wasnd/r1 -binary-port 0
//	wasnd -load -preset churn-storm -driver fleet -target http://localhost:9090
//	wasnd -check-metrics http://localhost:9090/metrics -fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	rpprof "runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/straightpath/wasn/internal/fleet"
	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/sweep"
	"github.com/straightpath/wasn/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wasnd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wasnd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address (server mode)")
		cacheSize = fs.Int("cache", 0, "route cache entries, 0 = default, negative disables")
		shards    = fs.Int("shards", 0, "route cache shards (0 = default)")
		workers   = fs.Int("workers", 0, "batch worker pool size (0 = NumCPU)")

		logLevel  = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "log output: text or json")
		pprofOn   = fs.Bool("pprof", false, "server mode: also serve net/http/pprof under /debug/pprof/")
		traceN    = fs.Int("trace-sample", 0, "sample every Nth computed route into the /traces ring (0 disables)")
		stretchN  = fs.Int("stretch-sample", 0, "sample every Nth delivered route for hop stretch vs the ideal min-hop path (0 disables)")
		cpuProf   = fs.String("cpuprofile", "", "load/sweep/replay: write a CPU profile of the run here")
		progressF = fs.Bool("progress", false, "load/sweep: stream live progress lines to stderr")
		checkURL  = fs.String("check-metrics", "", "scrape this /metrics URL, verify the required series exist, and exit (CI gate)")
		checkFlt  = fs.Bool("fleet", false, "check-metrics: gate the router's wasn_fleet_* series instead of the replica contract")
		renderIn  = fs.String("render", "", "render a load report (-load/-replay -out) or capacity curve (-sweep -out) JSON file to an SVG trajectory figure and exit (-out names the SVG; default input with .svg)")

		routerOn  = fs.Bool("router", false, "run the fleet router (consistent-hash proxy tier) instead of a replica")
		joinURL   = fs.String("join", "", "replica: register with the fleet router at this base URL on startup")
		replicaID = fs.String("replica-id", "", "replica: fleet identity (default derived from the listen address)")
		snapDir   = fs.String("snapshot-dir", "", "replica: persist a registry snapshot here on every state change and restore it on boot")
		binPort   = fs.Int("binary-port", -1, "replica: serve the binary batch transport on this TCP port (0 = OS-chosen; negative disables)")

		load     = fs.Bool("load", false, "run the workload engine instead of serving")
		preset   = fs.String("preset", "steady", "load: canned scenario (steady, hotspot, convergecast, churn-storm)")
		scenario = fs.String("scenario", "", "load: scenario JSON file (overrides -preset)")
		driver   = fs.String("driver", "inprocess", "load/sweep/replay: inprocess, http or fleet")
		target   = fs.String("target", "", "load/sweep/replay: wasnd base URL for -driver http, fleet router base URL for -driver fleet")
		outFile  = fs.String("out", "", "load/sweep/replay: write the JSON report (or capacity curve) here too")

		sweepCfg = fs.String("sweep", "", "run a capacity sweep from this config JSON file instead of serving")
		baseline = fs.String("baseline", "", "sweep: compare the curve against this baseline curve JSON; regressions exit nonzero")
		p99Tol   = fs.Float64("p99-tol", 0, "sweep: allowed fractional p99 regression at the baseline knee rung (0 = 0.25)")
		delTol   = fs.Float64("delivery-tol", 0, "sweep: allowed fractional delivery regression (0 = 0.25)")
		kneeTol  = fs.Float64("knee-tol", 0, "sweep: allowed fractional capacity-knee shrink (0 = 0.25)")
		normal   = fs.Bool("normalize", false, "sweep: compare p99 normalized to each curve's lightest rung (machine-speed independent)")

		record  = fs.String("record", "", "load/replay: write the run's (src,dst,at) request + churn trace to this JSONL file")
		replayF = fs.String("replay", "", "replay this recorded trace instead of serving")
		verify  = fs.Bool("verify", false, "replay: exit nonzero unless outcome counts match the trace's recorded summary")
		paced   = fs.Bool("paced", false, "replay: re-issue requests at their recorded arrival times instead of as fast as possible")

		model = fs.String("model", "", "load: override the scenario's deployment model")
		n     = fs.Int("n", 0, "load: override the scenario's node count")
		seed  = fs.Uint64("seed", 0, "load: override the scenario's deployment seed")
		alg   = fs.String("alg", "", "load: override the scenario's algorithm")
		rate  = fs.Float64("rate", 0, "load: override the open-loop arrival rate (req/s)")
		durMS = fs.Int("duration", 0, "load: override the open-loop duration (ms)")
		reqs  = fs.Int("requests", 0, "load: override the closed-loop request count")
		conc  = fs.Int("concurrency", 0, "load: override the client/worker count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		CacheSize: *cacheSize, CacheShards: *shards, Workers: *workers,
		TraceSampleEvery: *traceN, StretchSampleEvery: *stretchN,
	}
	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	// The run modes are mutually exclusive, and flags a mode cannot
	// honor are an error, not a silent no-op — a script asking for a
	// trace must not get a green exit and a missing file.
	if *checkURL != "" && (*load || *replayF != "" || *sweepCfg != "") {
		return fmt.Errorf("-check-metrics is exclusive with -load, -sweep and -replay")
	}
	if *renderIn != "" && (*load || *replayF != "" || *sweepCfg != "" || *checkURL != "") {
		return fmt.Errorf("-render is exclusive with -load, -sweep, -replay and -check-metrics")
	}
	if *sweepCfg != "" && (*load || *replayF != "") {
		return fmt.Errorf("-sweep is exclusive with -load and -replay")
	}
	if *load && *replayF != "" {
		return fmt.Errorf("-load is exclusive with -replay")
	}
	if *sweepCfg != "" && *record != "" {
		return fmt.Errorf("-record applies to -load and -replay runs, not -sweep")
	}
	if (*verify || *paced) && *replayF == "" {
		return fmt.Errorf("-verify and -paced apply only to -replay")
	}
	if *checkFlt && *checkURL == "" {
		return fmt.Errorf("-fleet applies only to -check-metrics")
	}
	fleetFlags := *routerOn || *joinURL != "" || *replicaID != "" || *snapDir != "" || *binPort >= 0
	if fleetFlags && (*load || *replayF != "" || *sweepCfg != "" || *checkURL != "" || *renderIn != "") {
		return fmt.Errorf("-router, -join, -replica-id, -snapshot-dir and -binary-port apply only to server mode")
	}
	if *routerOn && (*joinURL != "" || *replicaID != "" || *snapDir != "" || *binPort >= 0) {
		return fmt.Errorf("-join, -replica-id, -snapshot-dir and -binary-port are replica flags; a -router holds no registry")
	}
	var prog io.Writer
	if *progressF {
		prog = os.Stderr
	}
	switch {
	case *checkURL != "":
		return runCheckMetrics(out, *checkURL, *checkFlt)
	case *renderIn != "":
		return runRender(out, *renderIn, *outFile)
	case *sweepCfg != "":
		tol := sweep.Tolerance{P99Frac: *p99Tol, DeliveryFrac: *delTol, KneeFrac: *kneeTol, Normalize: *normal}
		return withCPUProfile(*cpuProf, func() error {
			return runSweep(out, prog, *sweepCfg, *driver, *target, *outFile, *baseline, tol, cfg)
		})
	case *replayF != "":
		return withCPUProfile(*cpuProf, func() error {
			return runReplay(out, *replayF, *driver, *target, *outFile, *record, *verify, *paced, cfg)
		})
	case *load:
		sc, err := loadScenario(*scenario, *preset)
		if err != nil {
			return err
		}
		applyOverrides(sc, *model, *n, *seed, *alg, *rate, *durMS, *reqs, *conc)
		return withCPUProfile(*cpuProf, func() error {
			return runLoad(out, prog, sc, *driver, *target, *outFile, *record, cfg)
		})
	}
	return serveHTTP(out, logger, cfg, serverOpts{
		addr: *addr, pprof: *pprofOn,
		router: *routerOn, joinURL: *joinURL, replicaID: *replicaID,
		snapshotDir: *snapDir, binaryPort: *binPort,
	})
}

// newLogger builds the process logger from the -log-level and
// -log-format flags.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// withCPUProfile brackets f with a runtime/pprof CPU profile when a
// path was given (the artifact the CI sweep job uploads).
func withCPUProfile(path string, f func() error) error {
	if path == "" {
		return f()
	}
	fp, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := rpprof.StartCPUProfile(fp); err != nil {
		fp.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	runErr := f()
	rpprof.StopCPUProfile()
	if err := fp.Close(); err != nil && runErr == nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	return runErr
}

// requiredMetricFamilies is the exposition contract a healthy wasnd
// must satisfy once it has built a deployment and served routes —
// the -check-metrics CI gate. Cache and churn families are excluded:
// they legitimately stay absent when the cache is disabled or no node
// has failed.
var requiredMetricFamilies = []string{
	"wasn_http_requests_total",
	"wasn_http_request_duration_us",
	"wasn_deployments",
	"wasn_substrate_builds_total",
	"wasn_build_duration_us",
	"wasn_routes_total",
	"wasn_routes_computed_total",
	"wasn_route_hops",
	"wasn_route_phase_hops_total",
	"wasn_repair_substrate_duration_us",
	"wasn_traces_recorded_total",
}

// requiredFleetMetricFamilies is the same contract for the router's
// exposition (-check-metrics -fleet): the fleet-chaos CI job gates on
// these after the kill/re-shard, so a rotted control-plane surface
// fails the build just like a rotted replica one.
var requiredFleetMetricFamilies = []string{
	"wasn_fleet_replicas",
	"wasn_fleet_replicas_alive",
	"wasn_fleet_replica_up",
	"wasn_fleet_reshards_total",
	"wasn_fleet_restores_total",
	"wasn_fleet_proxied_requests_total",
}

// runCheckMetrics scrapes one exposition and gates on the required
// series being present — the mid-run CI probe that fails the build
// when the observability surface rots. fleetGate switches to the
// router's wasn_fleet_* contract.
func runCheckMetrics(out io.Writer, url string, fleetGate bool) error {
	families := requiredMetricFamilies
	if fleetGate {
		families = requiredFleetMetricFamilies
	}
	samples, err := serve.ScrapeMetrics(controlClient, url)
	if err != nil {
		return fmt.Errorf("check-metrics: %w", err)
	}
	if missing := obs.MissingSeries(samples, families); len(missing) > 0 {
		return fmt.Errorf("check-metrics: %s: missing required series: %v", url, missing)
	}
	fmt.Fprintf(out, "metrics ok: %d series scraped, all %d required families present\n",
		len(samples), len(families))
	return nil
}

// serverOpts gathers the server-mode flags: which tier to run (router
// or replica) and the replica's fleet wiring.
type serverOpts struct {
	addr        string
	pprof       bool
	router      bool
	joinURL     string
	replicaID   string
	snapshotDir string
	binaryPort  int
}

// serveHTTP binds the listener first — -addr :0 is legal, and the
// resolved address is printed on stdout and served in /readyz so
// scripts stop racing on fixed ports — then runs the requested tier
// until SIGINT/SIGTERM drains it.
func serveHTTP(out io.Writer, logger *slog.Logger, cfg serve.Config, o serverOpts) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hostPort := advertiseAddr(ln.Addr())
	if o.router {
		return serveRouter(out, logger, ln, hostPort)
	}
	return serveReplica(out, logger, cfg, ln, hostPort, o)
}

// serveRouter runs the fleet control plane: shard map, health loop,
// state-transfer pushes and the proxy endpoints (internal/fleet.Router).
func serveRouter(out io.Writer, logger *slog.Logger, ln net.Listener, hostPort string) error {
	rt := fleet.NewRouter(fleet.RouterConfig{})
	defer rt.Close()
	fmt.Fprintf(out, "wasnd router listening on %s\n", hostPort)
	logger.Info("wasnd router listening", "addr", hostPort)
	return serveAndDrain(logger, newServer(requestLog(logger, rt.Handler())), ln, nil)
}

// The HTTP server timeouts, shared by replicas and the router: a client
// must send its request header within readHeaderTimeout and the whole
// request within readTimeout, and an idle keep-alive connection is
// closed after idleTimeout. There is no write timeout, so responses
// that take long — /debug/pprof/profile?seconds=30, large /batch
// results — are never cut off; readTimeout is long enough for the
// request context of a 30-second profile to outlive it.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newServer returns an HTTP server for h with the server timeouts.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout, IdleTimeout: idleTimeout}
}

// serveReplica runs the routing service, optionally with snapshot
// persistence (-snapshot-dir), the binary batch transport
// (-binary-port) and fleet membership (-join). The snapshot is
// restored before the listener serves, so the first request already
// sees the pre-crash registry.
func serveReplica(out io.Writer, logger *slog.Logger, cfg serve.Config, ln net.Listener, hostPort string, o serverOpts) error {
	if o.replicaID == "" {
		o.replicaID = "wasnd-" + hostPort
	}
	cfg.ReplicaID = o.replicaID
	// The snapshotter is created after the service (its export closure
	// needs it), but state changes only arrive once the listener serves
	// requests — by then sn is set.
	var sn *fleet.Snapshotter
	cfg.OnStateChange = func() {
		if sn != nil {
			sn.Notify()
		}
	}
	svc := serve.New(cfg)
	if o.snapshotDir != "" {
		if err := os.MkdirAll(o.snapshotDir, 0o755); err != nil {
			return fmt.Errorf("snapshot dir: %w", err)
		}
		path := filepath.Join(o.snapshotDir, "wasnd.snap")
		if snap, err := fleet.ReadSnapshotFile(path); err == nil {
			if err := svc.RestoreState(snap.States); err != nil {
				return fmt.Errorf("snapshot restore: %w", err)
			}
			logger.Info("snapshot restored", "path", path, "deployments", len(snap.States))
		} else if !errors.Is(err, os.ErrNotExist) {
			// A corrupt snapshot is a hard error: silently booting empty
			// would serve wrong routes under the same deployment names.
			return fmt.Errorf("snapshot load: %w", err)
		}
		sn = fleet.NewSnapshotter(fleet.SnapshotterConfig{
			Path: path,
			Export: func() fleet.Snapshot {
				return fleet.Snapshot{TakenUnixMS: uint64(time.Now().UnixMilli()), States: svc.ExportState()}
			},
			OnError: func(err error) { logger.Error("snapshot write failed", "err", err) },
		})
		defer sn.Close() // final flush: shutdown never loses acked churn
	}
	var binAddr string
	if o.binaryPort >= 0 {
		bln, err := net.Listen("tcp", fmt.Sprintf(":%d", o.binaryPort))
		if err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
		bin := fleet.NewBinaryServer(svc, bln)
		defer bin.Close()
		binAddr = advertiseAddr(bln.Addr())
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	// Overlay /readyz with the resolved addresses: with -addr :0 this is
	// where a probe (or the fleet health loop) learns where the replica
	// actually lives.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"ok": true, "replica_id": o.replicaID, "deployments": len(svc.Deployments()),
			"addr": hostPort, "binary_addr": binAddr,
		})
	})
	if o.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	fmt.Fprintf(out, "wasnd listening on %s", hostPort)
	if binAddr != "" {
		fmt.Fprintf(out, " (binary %s)", binAddr)
	}
	fmt.Fprintln(out)
	logger.Info("wasnd listening", "addr", hostPort, "binary", binAddr, "replica", o.replicaID, "pprof", o.pprof)
	srv := newServer(requestLog(logger, mux))
	// Join only after the HTTP server accepts requests: the router
	// health-probes /readyz and may push /restore immediately.
	var afterStart func() error
	if o.joinURL != "" {
		afterStart = func() error {
			if err := joinFleet(o.joinURL, fleet.Replica{ID: o.replicaID, Addr: "http://" + hostPort, BinaryAddr: binAddr}); err != nil {
				return err
			}
			logger.Info("joined fleet", "router", o.joinURL, "replica", o.replicaID)
			return nil
		}
	}
	return serveAndDrain(logger, srv, ln, afterStart)
}

// serveAndDrain serves ln until SIGINT/SIGTERM, then drains in-flight
// requests via http.Server.Shutdown so HTTP-mode load runs end
// cleanly. afterStart (when non-nil) runs once the serve goroutine is
// up; its error aborts the server.
func serveAndDrain(logger *slog.Logger, srv *http.Server, ln net.Listener, afterStart func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.Serve(ln)
	}()
	if afterStart != nil {
		if err := afterStart(); err != nil {
			srv.Close()
			<-errCh
			return err
		}
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills hard
		logger.Info("wasnd draining", "timeout", "10s")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Info("wasnd drained cleanly")
		return nil
	}
}

// advertiseAddr rewrites a bound listener address into one other
// processes can dial: the wildcard hosts a ":0"-style -addr binds to
// become loopback (the fleet CI job runs everything on one machine;
// multi-host fleets pass explicit -addr hosts).
func advertiseAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// controlTimeout bounds each of wasnd's own client calls
// (-check-metrics and every -join attempt): a peer that accepts the
// connection and never answers fails the call instead of hanging the
// CI probe or the replica's start.
const controlTimeout = 5 * time.Second

var controlClient = &http.Client{Timeout: controlTimeout}

// joinFleet registers the replica with the router, retrying briefly so
// a fleet script may start replicas and router concurrently. A 4xx is
// a config error (duplicate ID, bad addr) that retrying cannot fix.
func joinFleet(routerURL string, rep fleet.Replica) error {
	url := strings.TrimSuffix(routerURL, "/") + "/join"
	for attempt := 1; ; attempt++ {
		err := serve.PostJSON(controlClient, url, rep, nil)
		if err == nil {
			return nil
		}
		if !serve.Retryable(err) || attempt == 20 {
			return fmt.Errorf("join: %w", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// requestLog assigns each request a sequential ID (echoed in the
// X-Request-Id response header so a client error report names the
// exact server-side log line) and logs method, path, status and
// latency at debug level.
func requestLog(logger *slog.Logger, next http.Handler) http.Handler {
	var seq atomic.Uint64
	debugOn := logger.Enabled(context.Background(), slog.LevelDebug)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%08x", seq.Add(1))
		w.Header().Set("X-Request-Id", id)
		if !debugOn {
			next.ServeHTTP(w, r)
			return
		}
		lw := &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(lw, r)
		logger.Debug("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"status", lw.status, "dur_us", time.Since(start).Microseconds())
	})
}

// loggingWriter captures the response status for the request log.
type loggingWriter struct {
	http.ResponseWriter
	status int
}

func (w *loggingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// loadScenario resolves -scenario (a JSON file) or -preset.
func loadScenario(file, preset string) (*workload.Scenario, error) {
	if file != "" {
		return workload.ParseFile(file)
	}
	return workload.Preset(preset)
}

// applyOverrides lets the quick-tour flags tweak a canned scenario
// without writing a JSON file. Zero values leave the scenario as is.
func applyOverrides(sc *workload.Scenario, model string, n int, seed uint64, alg string, rate float64, durMS, reqs, conc int) {
	if model != "" {
		sc.Deployment.Model = model
	}
	if n > 0 {
		sc.Deployment.N = n
	}
	if seed != 0 {
		sc.Deployment.Seed = seed
	}
	if alg != "" {
		sc.Algorithm = alg
	}
	if rate > 0 {
		sc.Arrival.RateHz = rate
	}
	if durMS > 0 {
		sc.Arrival.DurationMS = durMS
	}
	if reqs > 0 {
		sc.Arrival.Requests = reqs
	}
	if conc > 0 {
		sc.Arrival.Concurrency = conc
	}
}

// runLoad executes the scenario, prints the human summary, writes the
// full JSON report to -out and the trace to -record when given, and
// exits nonzero when the engine reported request errors or shed load —
// a smoke job must not pass on a failing run.
func runLoad(out, prog io.Writer, sc *workload.Scenario, driver, target, outFile, recordFile string, cfg serve.Config) error {
	drv, err := workload.NewDriver(driver, target, cfg)
	if err != nil {
		return err
	}
	defer drv.Close()
	var rec *workload.Recorder
	if recordFile != "" {
		rec = workload.NewRecorder(drv)
		drv = rec
	}
	fmt.Fprintf(out, "wasnd load: scenario %s, driver %s\n", sc.Name, drv.Name())
	rep, err := workload.RunWith(drv, sc, workload.Options{Progress: prog})
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Summary())
	if err := writeArtifacts(out, rep, rec, outFile, recordFile); err != nil {
		return err
	}
	return reportExitErr(rep)
}

// runReplay re-issues a recorded trace, optionally verifying the
// outcome against the trace's summary and re-recording it.
func runReplay(out io.Writer, traceFile, driver, target, outFile, recordFile string, verify, paced bool, cfg serve.Config) error {
	tr, err := workload.ReadTraceFile(traceFile)
	if err != nil {
		return err
	}
	drv, err := workload.NewDriver(driver, target, cfg)
	if err != nil {
		return err
	}
	defer drv.Close()
	var rec *workload.Recorder
	if recordFile != "" {
		rec = workload.NewRecorder(drv)
		drv = rec
	}
	fmt.Fprintf(out, "wasnd replay: %s (%d events), driver %s\n", traceFile, len(tr.Events), drv.Name())
	rep, err := workload.Replay(drv, tr, workload.ReplayOptions{Paced: paced})
	if err != nil {
		return err
	}
	fmt.Fprint(out, rep.Summary())
	if err := writeArtifacts(out, rep, rec, outFile, recordFile); err != nil {
		return err
	}
	if verify {
		// -verify makes summary agreement the exit criterion: a trace
		// recorded from a run that itself had request errors must exit
		// zero when the replay reproduces those errors exactly —
		// that's a faithful reproduction, not a failure.
		if err := tr.VerifySummary(rep); err != nil {
			return err
		}
		fmt.Fprintln(out, "replay verified: outcome counts match the recorded run")
		return nil
	}
	return reportExitErr(rep)
}

// runSweep runs the capacity ladder, writes the curve artifact, and
// gates against a baseline curve when one is given.
func runSweep(out, prog io.Writer, cfgFile, driver, target, outFile, baselineFile string, tol sweep.Tolerance, svcCfg serve.Config) error {
	cfg, err := sweep.ParseConfigFile(cfgFile)
	if err != nil {
		return err
	}
	drv, err := workload.NewDriver(driver, target, svcCfg)
	if err != nil {
		return err
	}
	defer drv.Close()
	lo, hi, unit := cfg.Span()
	fmt.Fprintf(out, "wasnd sweep: %s, %d rungs %g..%g %s (%s), driver %s\n",
		cfg.Name, cfg.Steps, lo, hi, unit, cfg.Mode, drv.Name())
	curve, err := sweep.Run(drv, cfg, sweep.Options{ProgressWriter: prog})
	if err != nil {
		return err
	}
	fmt.Fprint(out, curve.Summary())
	if outFile != "" {
		if err := curve.WriteFile(outFile); err != nil {
			return err
		}
		fmt.Fprintf(out, "curve written to %s\n", outFile)
	}
	if baselineFile != "" {
		base, err := sweep.ParseCurveFile(baselineFile)
		if err != nil {
			return err
		}
		if regs := sweep.Compare(curve, base, tol); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(out, "REGRESSION: %s\n", r)
			}
			return fmt.Errorf("%d perf regression(s) against %s", len(regs), baselineFile)
		}
		fmt.Fprintf(out, "no regressions against %s\n", baselineFile)
		if imps := sweep.Improvements(curve, base, tol); len(imps) > 0 {
			// Never a failure — but a stale baseline undersells the
			// system and would let regressions of the improvement's size
			// pass, so tell the author to re-record it.
			for _, m := range imps {
				fmt.Fprintf(out, "IMPROVEMENT: %s\n", m)
			}
			fmt.Fprintf(out, "baseline %s is stale; regenerate it (recipe in .github/perf/README.md)\n", baselineFile)
		}
	}
	return nil
}

// writeArtifacts persists the report (-out) and trace (-record) files.
func writeArtifacts(out io.Writer, rep *workload.Report, rec *workload.Recorder, outFile, recordFile string) error {
	if outFile != "" {
		f, err := os.Create(outFile)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", outFile)
	}
	if rec != nil {
		if err := rec.WriteFile(recordFile); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace written to %s\n", recordFile)
	}
	return nil
}

// reportExitErr maps a completed run's failure counters to a nonzero
// exit: request errors always, shed arrivals because an overloaded
// open loop is a failed run for CI purposes (the report itself still
// prints and persists first).
func reportExitErr(rep *workload.Report) error {
	if rep.Errors > 0 {
		return fmt.Errorf("run completed with %d request errors (first: %s)", rep.Errors, rep.ErrorSample)
	}
	if rep.Dropped > 0 {
		return fmt.Errorf("run shed %d arrivals: offered load exceeded what the driver could absorb", rep.Dropped)
	}
	return nil
}
