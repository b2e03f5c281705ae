package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fx, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestStreamsDependOnlyOnSeedAndClient(t *testing.T) {
	fx := testFixture(t)
	for _, w := range workloadNames {
		for c := 0; c < 2; c++ {
			a, b := fx.newStream(w, 7, c), fx.newStream(w, 7, c)
			otherSeed, otherClient := fx.newStream(w, 8, c), fx.newStream(w, 7, c+1)
			seedDiffers, clientDiffers := false, false
			for i := 0; i < 2000; i++ {
				x, y := a(), b()
				if x != y {
					t.Fatalf("%s client %d request %d: %+v then %+v from the same seed", w, c, i, x, y)
				}
				seedDiffers = seedDiffers || x != otherSeed()
				clientDiffers = clientDiffers || x != otherClient()
			}
			if !seedDiffers || !clientDiffers {
				t.Errorf("%s client %d: another seed differs %v, another client differs %v", w, c, seedDiffers, clientDiffers)
			}
		}
	}
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	fx := testFixture(t)
	a, b := fx.newSchedule(7), fx.newSchedule(7)
	b.at(59) // generating further ahead must not change the prefix
	for i := 0; i < 60; i++ {
		if !reflect.DeepEqual(a.at(i), b.at(i)) {
			t.Fatalf("mutation %d differs between two schedules of one seed", i)
		}
	}
	if reflect.DeepEqual(a.at(0), fx.newSchedule(8).at(0)) {
		t.Error("seeds 7 and 8 fail the same nodes first")
	}
}

func TestScheduleCycle(t *testing.T) {
	fx := testFixture(t)
	s := fx.newSchedule(3)
	home := fx.net.Positions()
	for i := 0; i < 30; i++ {
		m := s.at(i)
		if want := cycle[i%len(cycle)]; m.kind != want {
			t.Fatalf("mutation %d is %s, want %s", i, m.kind, want)
		}
		for _, u := range m.nodes {
			if fx.sink[u] {
				t.Errorf("mutation %d touches sink %d", i, u)
			}
		}
		if m.kind == mutRevive && !reflect.DeepEqual(m.nodes, s.at(i-1).nodes) {
			t.Errorf("revive %d does not revive the nodes failed before it", i)
		}
	}
	// Churn is stationary: after a move only its own drift batch is away
	// from home, and nothing stays dead across a cycle.
	st := s.stateAt(30)
	if len(st.failed) != 0 {
		t.Errorf("%d nodes still dead after full cycles", len(st.failed))
	}
	away := 0
	for u, m := range st.moved {
		if fx.sink[u] {
			t.Errorf("sink %d moved", u)
		}
		if m.X != home[u].X || m.Y != home[u].Y {
			away++
		}
	}
	if away > movePerMutation {
		t.Errorf("%d nodes away from home, want at most %d", away, movePerMutation)
	}
}

func TestQuantiles(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[len(vals)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := quantile(vals, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := weightedQuantile([]float64{1, 2, 3}, []int64{1, 1, 8}, 0.5); got != 3 {
		t.Errorf("weighted median = %v, want 3", got)
	}
}

func TestRecorderThinsEvenly(t *testing.T) {
	var r recorder
	const n = 1 << 20
	for i := 1; i <= n; i++ {
		r.add(time.Duration(i) * time.Microsecond)
	}
	if r.n != n || r.sum != int64(n)*(n+1)/2*1000 {
		t.Fatalf("counted %d observations summing %d", r.n, r.sum)
	}
	if len(r.kept.vals) > 1<<18 {
		t.Fatalf("kept %d samples, more than the limit", len(r.kept.vals))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := quantileUS(q, &r), q*n
		if d := got/want - 1; d > 0.001 || d < -0.001 {
			t.Errorf("p%v = %v us, want %v within 0.1%%", q*100, got, want)
		}
	}
	// Two recorders thinned to different strides still weigh every
	// observation once.
	var few recorder
	for i := 0; i < 1000; i++ {
		few.add(0)
	}
	if got := quantileUS(0.0005, &few, &r); got != 0 {
		t.Errorf("merged p0.05 = %v, want 0", got)
	}
}

func TestFrac(t *testing.T) {
	if frac(1, 0) != 0 || frac(1, 4) != 0.25 {
		t.Errorf("frac(1,0) = %v, frac(1,4) = %v", frac(1, 0), frac(1, 4))
	}
}

func TestGateCatchesWrongAnswers(t *testing.T) {
	fx := testFixture(t)
	refs := &references{sched: fx.newSchedule(1)}
	ref, err := refs.at(0)
	if err != nil {
		t.Fatal(err)
	}
	req := fx.newStream(wlBatchMiss, 1, 0)()
	good := ref.route(req)
	bad := good
	bad.Hops++
	n, problems, err := checkSamples(refs, []sample{{req: req, resp: good}, {req: req, resp: bad}})
	if err != nil || n != 2 || len(problems) != 1 {
		t.Errorf("checked %d, problems %q, err %v; want 2 checked and one problem", n, problems, err)
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "route-hot"},
		{"--workload", wlBatchMiss, "--trace", "2"},
		{"--workload", wlBatchMiss, "--seconds", "0"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) = %d with output %q", args, code, out.String())
		}
	}
}

// TestSmokeRuns runs every workload briefly, traced and untraced, and
// checks the result line against the metrics BENCHMARK.json declares.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about half a minute")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !knownWorkload(w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark runs %v", w.Name, workloadNames)
		}
	}
	for _, w := range workloadNames {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5", "--trace", trace}, &out, &errs)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, out.String(), errs.String())
				}
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d calls failed", res.Correct, res.Failed, res.Attempted)
				}
				var got, wanted []string
				for name, m := range res.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				for _, m := range want {
					wanted = append(wanted, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(wanted)
				if !reflect.DeepEqual(got, wanted) {
					t.Errorf("metrics\n%v\nwant\n%v", got, wanted)
				}
			})
		}
	}
}
