package wasn

// Benchmark harness: one benchmark per paper artifact (Figs. 5, 6, 7,
// each under the IA and FA deployment models), plus the ablation and
// construction-cost benches called out in DESIGN.md. Each figure bench
// runs a reduced sweep per iteration (full 100-network sweeps live in
// cmd/wasnsim) and reports the paper's metric for the densest
// configuration through testing.B metrics, so `go test -bench=.` both
// exercises the full pipeline and prints the reproduced quantities.

import (
	"math/rand/v2"
	"testing"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/expt"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// benchSweep is the reduced sweep used inside benchmarks.
func benchSweep(b *testing.B, model topo.DeployModel, metric expt.Metric, algs []expt.AlgID) {
	b.Helper()
	cfg := expt.DefaultConfig(model, 2, 5)
	cfg.NodeCounts = []int{400, 600, 800}
	if algs != nil {
		cfg.Algorithms = algs
	}
	var last *expt.Sweep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep, err := expt.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = sweep
	}
	b.StopTimer()
	for _, alg := range cfg.Algorithms {
		if v, ok := last.Value(800, alg, metric); ok {
			b.ReportMetric(v, string(alg)+"@800")
		}
	}
}

// Fig. 5: maximum hop count.

func BenchmarkFig5MaxHopsIA(b *testing.B) {
	benchSweep(b, topo.ModelIA, expt.MetricMaxHops, nil)
}

func BenchmarkFig5MaxHopsFA(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricMaxHops, nil)
}

// Fig. 6: average hop count.

func BenchmarkFig6AvgHopsIA(b *testing.B) {
	benchSweep(b, topo.ModelIA, expt.MetricAvgHops, nil)
}

func BenchmarkFig6AvgHopsFA(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricAvgHops, nil)
}

// Fig. 7: average routing path length.

func BenchmarkFig7PathLenIA(b *testing.B) {
	benchSweep(b, topo.ModelIA, expt.MetricAvgLength, nil)
}

func BenchmarkFig7PathLenFA(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricAvgLength, nil)
}

// Ablations (DESIGN.md §3): SLGF2 design choices isolated.

func BenchmarkAblationHandRule(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricAvgHops,
		[]expt.AlgID{expt.AlgSLGF2, expt.AlgSLGF2RightHand})
}

func BenchmarkAblationShapeInfo(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricAvgHops,
		[]expt.AlgID{expt.AlgSLGF2, expt.AlgSLGF2NoShape})
}

func BenchmarkAblationBackupPath(b *testing.B) {
	benchSweep(b, topo.ModelFA, expt.MetricAvgHops,
		[]expt.AlgID{expt.AlgSLGF2, expt.AlgSLGF2NoBackup})
}

func BenchmarkAblationEdgeRule(b *testing.B) {
	for _, rule := range []safety.EdgeRule{
		safety.ConvexHullEdge{},
		safety.BorderMarginEdge{Margin: 20},
		safety.DefaultEdgeRule(),
	} {
		b.Run(rule.Name(), func(b *testing.B) {
			cfg := expt.DefaultConfig(topo.ModelFA, 2, 5)
			cfg.NodeCounts = []int{600}
			cfg.Algorithms = []expt.AlgID{expt.AlgSLGF2}
			cfg.EdgeRule = rule
			var last *expt.Sweep
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep, err := expt.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = sweep
			}
			b.StopTimer()
			if v, ok := last.Value(600, expt.AlgSLGF2, expt.MetricAvgHops); ok {
				b.ReportMetric(v, "avgHops@600")
			}
		})
	}
}

// Construction cost: safety information vs BOUNDHOLE boundary info.

func BenchmarkConstructionCost(b *testing.B) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelFA, 600, 7))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("safety-sync", func(b *testing.B) {
		var m *safety.Model
		for i := 0; i < b.N; i++ {
			m = safety.Build(dep.Net)
		}
		b.ReportMetric(float64(m.Cost.Rounds), "rounds")
		b.ReportMetric(float64(m.Cost.Messages), "messages")
	})
	b.Run("safety-async", func(b *testing.B) {
		var m *safety.Model
		for i := 0; i < b.N; i++ {
			m = safety.BuildAsync(dep.Net, uint64(i))
		}
		b.ReportMetric(float64(m.Cost.Messages), "messages")
	})
	b.Run("boundhole", func(b *testing.B) {
		var bs *bound.Boundaries
		for i := 0; i < b.N; i++ {
			bs = bound.FindHoles(dep.Net)
		}
		b.ReportMetric(float64(bs.MessageCount), "messages")
		b.ReportMetric(float64(len(bs.Holes)), "holes")
	})
	b.Run("gabriel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			planar.Build(dep.Net, planar.GabrielGraph)
		}
	})
}

// Micro benches: one route per algorithm on a fixed 600-node FA network.

func BenchmarkRoutePerAlgorithm(b *testing.B) {
	dep, err := Deploy(FA, 600, 11)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(dep)
	if err != nil {
		b.Fatal(err)
	}
	labels, _ := topo.Components(dep.Net)
	var pairs [][2]NodeID
	for s := 0; s < dep.Net.N() && len(pairs) < 32; s += 11 {
		d := (s*17 + 300) % dep.Net.N()
		if s != d && labels[s] >= 0 && labels[s] == labels[d] {
			pairs = append(pairs, [2]NodeID{NodeID(s), NodeID(d)})
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no connected pairs")
	}
	for _, alg := range sim.Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			hops := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				res := sim.Route(alg, p[0], p[1])
				hops += res.Hops()
			}
			b.ReportMetric(float64(hops)/float64(b.N), "hops/route")
		})
	}
}

// Per-algorithm route benches over a fixed 600-node FA network, driving
// RouteInto with a reused path buffer: steady-state routing must stay at
// 0 allocs/op (b.ReportAllocs makes regressions visible).

func benchRouteAlg(b *testing.B, alg Algorithm) {
	b.Helper()
	dep, err := Deploy(FA, 600, 11)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(dep)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.Router(alg)
	if r == nil {
		b.Fatalf("unknown algorithm %v", alg)
	}
	pairs := topo.RoutablePairs(dep.Net, 64, 60)
	if len(pairs) == 0 {
		b.Fatal("no connected pairs")
	}
	buf := make([]NodeID, 0, 4*dep.Net.N())
	// Warm the route pools so the measured loop sees steady state.
	for _, p := range pairs {
		res := r.RouteInto(p[0], p[1], buf)
		buf = res.Path[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		res := r.RouteInto(p[0], p[1], buf)
		hops += res.Hops()
		buf = res.Path[:0]
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/route")
}

func BenchmarkRouteGF(b *testing.B)        { benchRouteAlg(b, GF) }
func BenchmarkRouteLGF(b *testing.B)       { benchRouteAlg(b, LGF) }
func BenchmarkRouteSLGF(b *testing.B)      { benchRouteAlg(b, SLGF) }
func BenchmarkRouteSLGF2(b *testing.B)     { benchRouteAlg(b, SLGF2) }
func BenchmarkRouteGPSR(b *testing.B)      { benchRouteAlg(b, GPSR) }
func BenchmarkRouteIdealHops(b *testing.B) { benchRouteAlg(b, IdealHop) }
func BenchmarkRouteIdealLen(b *testing.B)  { benchRouteAlg(b, IdealLen) }

// Substrate micro benches.

func BenchmarkDeploy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Deploy(FA, 800, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploymentBuild measures the full substrate pipeline — node
// placement, CSR adjacency, safety model, BOUNDHOLE boundaries, Gabriel
// graph — on an 800-node FA network, the wall time /deploy pays when a
// registered deployment is first routed.
func BenchmarkDeploymentBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dep, err := Deploy(FA, 800, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewSim(dep); err != nil {
			b.Fatal(err)
		}
	}
}

// Failure-repair benches: one node failure on an 800-node FA network,
// with all three substrates either repaired incrementally
// (core.RepairSubstrates — the serve /fail and Sim.Fail path) or
// rebuilt from scratch (what a repair must equal). Victims fail
// cumulatively, so later iterations repair progressively damaged
// networks; the state is rebuilt fresh (off-timer) when half the
// network is gone.

func benchmarkFail(b *testing.B, incremental bool) {
	b.Helper()
	type failState struct {
		net     *Network
		m       *safety.Model
		bs      *bound.Boundaries
		g       *planar.Graph
		victims []NodeID
		idx     int
	}
	newState := func() *failState {
		dep, err := Deploy(FA, 800, 42)
		if err != nil {
			b.Fatal(err)
		}
		m, bs, g := core.BuildSubstrates(dep.Net, true, true, true, nil)
		st := &failState{net: dep.Net, m: m, bs: bs, g: g}
		// 131 is coprime with 800, so this walks a permutation of the
		// node ids: 400 distinct victims spread over the field.
		for u := 0; u < 400; u++ {
			st.victims = append(st.victims, NodeID((u*131)%800))
		}
		return st
	}
	st := newState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.idx >= len(st.victims) {
			b.StopTimer()
			st = newState()
			b.StartTimer()
		}
		v := st.victims[st.idx]
		st.idx++
		st.net.SetAlive(v, false)
		if incremental {
			core.RepairSubstrates(st.m, st.bs, st.g, []topo.NodeID{v})
		} else {
			st.m, st.bs, st.g = core.BuildSubstrates(st.net, true, true, true, nil)
		}
	}
}

func BenchmarkFailRepairIncremental(b *testing.B) { benchmarkFail(b, true) }
func BenchmarkFailFullRebuild(b *testing.B)       { benchmarkFail(b, false) }

func BenchmarkSafetyRelabelIncremental(b *testing.B) {
	dep, err := Deploy(FA, 600, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh model and victim per iteration.
		m := safety.Build(dep.Net)
		victim := NodeID((i * 37) % dep.Net.N())
		b.StartTimer()
		dep.Net.SetAlive(victim, false)
		m.OnNodeFailure(victim)
		b.StopTimer()
		dep.Net.SetAlive(victim, true)
	}
}

var benchSink core.Result

func BenchmarkSingleRouteSLGF2(b *testing.B) {
	dep, err := Deploy(FA, 600, 17)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := NewSim(dep)
	if err != nil {
		b.Fatal(err)
	}
	labels, _ := topo.Components(dep.Net)
	src, dst := NodeID(-1), NodeID(-1)
	for s := 0; s < dep.Net.N(); s++ {
		d := dep.Net.N() - 1 - s
		if s != d && labels[s] >= 0 && labels[s] == labels[d] {
			src, dst = NodeID(s), NodeID(d)
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sim.Route(SLGF2, src, dst)
	}
}

// Serving layer benches: the cached vs uncached route path and the batch
// engine of internal/serve (the wasnd backend). BenchmarkServeRoute/cold
// routes a different pair each iteration (every request misses);
// /cached replays one warm pair.

func benchService(b *testing.B, cfg ServiceConfig) (*Service, string, [][2]NodeID) {
	b.Helper()
	svc := NewService(cfg)
	name, err := svc.Deploy("", DeploymentSpec{Model: FA, N: 500, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	// Build eagerly so the measured loop times routes, not the one-off
	// substrate construction.
	if err := svc.Build(name); err != nil {
		b.Fatal(err)
	}
	dep, err := Deploy(FA, 500, 42)
	if err != nil {
		b.Fatal(err)
	}
	pairs := topo.RoutablePairs(dep.Net, 256, 60)
	if len(pairs) == 0 {
		b.Fatal("no connected pairs")
	}
	return svc, name, pairs
}

func BenchmarkServeRoute(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		svc, name, pairs := benchService(b, ServiceConfig{CacheSize: -1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, _, err := svc.Route(name, string(SLGF2), p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		svc, name, pairs := benchService(b, ServiceConfig{})
		p := pairs[0]
		if _, _, err := svc.Route(name, string(SLGF2), p[0], p[1]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.Route(name, string(SLGF2), p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkServeBatch(b *testing.B) {
	svc, name, pairs := benchService(b, ServiceConfig{})
	reqs := make([]RouteRequest, len(pairs))
	for i, p := range pairs {
		reqs[i] = RouteRequest{Deployment: name, Algorithm: string(SLGF2), Src: p[0], Dst: p[1]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range svc.Batch(reqs) {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(reqs)), "routes/op")
}

// benchmarkMove measures one 1% drift batch per op on an 800-node FA
// deployment: 8 movers take a Gaussian step (sigma 4 m, clamped to the
// field), the CSR adjacency is rewritten (SetPositions), and the
// substrates are brought to the exact from-scratch state — either by
// incremental position repair over the geometric dirty set or by a full
// rebuild. The movers random-walk cumulatively, so later iterations
// repair progressively displaced networks.
func benchmarkMove(b *testing.B, incremental bool) {
	dep, err := Deploy(FA, 800, 42)
	if err != nil {
		b.Fatal(err)
	}
	net := dep.Net
	m, bs, g := core.BuildSubstrates(net, true, true, true, nil)
	rng := rand.New(rand.NewPCG(42, 0xd41f7))
	movers := make([]NodeID, 8)
	for i := range movers {
		movers[i] = NodeID((i*101 + 7) % net.N())
	}
	moves := make([]topo.Move, len(movers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, u := range movers {
			p := net.Pos(u)
			x := min(max(p.X+rng.NormFloat64()*4, net.Field.Min.X), net.Field.Max.X)
			y := min(max(p.Y+rng.NormFloat64()*4, net.Field.Min.Y), net.Field.Max.Y)
			moves[j] = topo.Move{Node: u, X: x, Y: y}
		}
		b.StartTimer()
		dirty, err := net.SetPositions(moves)
		if err != nil {
			b.Fatal(err)
		}
		if incremental {
			core.RepairSubstratesMoved(m, bs, g, dirty)
		} else {
			m, bs, g = core.BuildSubstrates(net, true, true, true, nil)
		}
	}
}

func BenchmarkMoveRepairIncremental(b *testing.B) { benchmarkMove(b, true) }
func BenchmarkMoveFullRebuild(b *testing.B)       { benchmarkMove(b, false) }
