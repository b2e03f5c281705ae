// Command perfbench is the routing service's benchmark. It hosts a
// serve.Service in-process, drives one of two closed-loop workloads
// against it over loopback, checks every sampled answer against a
// from-scratch build, and prints its metrics by name and unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, from spans the benchmark records around its own
// calls into each layer. See README.md.
//
// Usage:
//
//	perfbench --workload batch-miss|churn-mixed --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
}

// mutationEvery spaces the churn schedule's due times. A mutation costs
// FA-800 about 70ms of repair on average, so one every 250ms keeps
// repair at about a third of one core. Each repair holds the deployment's write
// lock, so the reader waits that long too.
const mutationEvery = 250 * time.Millisecond

// plan sizes the phases of one run. Besides the measured phase, each
// phase does a fixed amount of work from about 30 seconds up, and less
// in shorter runs such as the tests' sub-second ones.
type plan struct {
	measure, warm   time.Duration
	setupReps       int // set-ups timed, the median reported
	tailMutations   int // churn after batch-miss's measured phase
	shadowMutations int // whole churn cycles the shadow copies replay, up to 10
	layerRoutes     int // requests per layer-pass segment
	finalPairs      int // fresh pairs checked on the final topology
}

func newPlan(seconds float64) plan {
	measure := time.Duration(seconds * float64(time.Second))
	scale := func(per float64, lo, hi int) int { return min(max(int(seconds*per), lo), hi) }
	return plan{
		measure:         measure,
		warm:            min(time.Second, measure/5),
		setupReps:       scale(0.5, 1, 5),
		tailMutations:   scale(3.4, 5, 100),
		shadowMutations: len(cycle) * scale(1.0/3, 1, 10),
		layerRoutes:     scale(1000, 256, 8192),
		finalPairs:      scale(50, 20, 400),
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// bench is one run: the service under test, its transports, the churn
// schedule and everything measured and checked so far.
type bench struct {
	o       options
	p       plan
	clients int
	fx      *fixture
	sched   *schedule
	refs    *references
	svc     *serve.Service
	tp      *transports

	mu                sync.Mutex
	attempted, failed int64
	errs              []string // the first call errors
	problems          []string // failed checks
	notes             []string // what the checks covered
	samples           []sample
	metrics           []metric
}

func (b *bench) add(name string, v float64, unit string) {
	b.metrics = append(b.metrics, metric{name, v, unit})
}

func (b *bench) problem(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// noteErr keeps the first few call errors for the report.
func (b *bench) noteErr(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.errs) < maxProblems {
		b.errs = append(b.errs, err.Error())
	}
}

// count accounts one call made outside a closed loop.
func (b *bench) count(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.noteErr(err)
	}
}

// account adds a closed loop's calls and samples to the run totals.
func (b *bench) account(t *tally) {
	b.attempted += t.calls
	b.failed += t.failed
	b.samples = append(b.samples, t.samples.vals...)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: batch-miss or churn-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every pair draw and mutation victim")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end ones")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from, for the environment stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if !knownWorkload(o.workload) || o.seconds <= 0 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %v, --seconds > 0 and --trace 0 or 1\n", workloadNames)
		return 2
	}

	env, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": o.commit,
	})
	fmt.Fprintf(stdout, "env %s\n", env)

	b, err := runBench(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, e := range b.errs {
		fmt.Fprintf(stdout, "error %s\n", e)
	}
	for _, n := range b.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "check failed: %s\n", p)
	}
	fmt.Fprintf(stdout, "error_frac %.6g (%d of %d calls)\n", frac(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	for _, m := range b.metrics {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := resultLine(b)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(b.problems) > 0 || b.failed > 0 {
		return 1
	}
	return 0
}

func knownWorkload(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}

// resultLine encodes the final result object.
func resultLine(b *bench) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(b.metrics))
	for _, m := range b.metrics {
		if _, dup := metrics[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, b.failed, metrics})
}
