package main

import (
	"errors"
	"runtime"
	"slices"
	"time"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/fleet"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// The traced run's per-layer numbers come from spans the benchmark
// records around its own calls into each layer's public functions; the
// program itself carries no tracing.

func timeCall(tr *tracer, name string, f func()) {
	start := time.Now()
	f()
	tr.add(name, time.Since(start))
}

// perCallUS times one span around f, which makes n calls into a layer,
// and returns the mean per call in microseconds. Timing the loop rather
// than each call keeps clock reads out of sub-microsecond calls.
func perCallUS(n int, f func()) float64 {
	start := time.Now()
	f()
	return frac(float64(time.Since(start)), float64(n)) / 1e3
}

// buildSpans times each substrate build of the fixture separately, as
// the set-up of every workload pays them, and reports the medians.
func (b *bench) buildSpans() {
	tr := newTracer()
	cfg := topo.DefaultDeployConfig(fixtureSpec.Model, fixtureSpec.N, fixtureSpec.Seed)
	for rep := 0; rep < b.p.setupReps; rep++ {
		runtime.GC()
		var dep *topo.Deployment
		var err error
		timeCall(tr, "topo.deploy_ms", func() { dep, err = topo.Deploy(cfg) })
		if err != nil {
			b.problem("deploying the fixture: %v", err)
			return
		}
		timeCall(tr, "safety.build_ms", func() { safety.Build(dep.Net) })
		timeCall(tr, "bound.build_ms", func() { bound.FindHoles(dep.Net) })
		timeCall(tr, "planar.build_ms", func() { planar.Build(dep.Net, planar.GabrielGraph) })
		timeCall(tr, "core.build_substrates_ms", func() { core.BuildSubstrates(dep.Net, true, true, true, nil) })
	}
	for _, name := range []string{"topo.deploy_ms", "safety.build_ms", "bound.build_ms", "planar.build_ms", "core.build_substrates_ms"} {
		b.add(name, quantileUS(0.5, tr.spans[name])/1e3, "ms")
	}
}

// layerPass replays fresh segments of the workload's own request stream
// (client 0's) through each layer in turn, from the routers up to each
// transport, and reports the mean time per call and the differences
// between adjacent layers. ref is a from-scratch build of the topology
// the service holds now.
func (b *bench) layerPass(ref *reference) error {
	next := b.fx.newStream(b.o.workload, b.o.seed, 0)
	segment := func() []serve.RouteRequest {
		out := make([]serve.RouteRequest, b.p.layerRoutes)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	buf := make([]topo.NodeID, 0, 256)

	// Routers: every router over the segment's pairs.
	seg := segment()
	n := len(seg)
	for _, alg := range routerAlgs {
		r := ref.routers[alg]
		var delivered, hops int
		us := perCallUS(n, func() {
			for _, q := range seg {
				res := r.RouteInto(q.Src, q.Dst, buf)
				buf = res.Path[:0]
				if res.Delivered {
					delivered++
					hops += res.Hops()
				}
			}
		})
		b.add("core.route_us."+alg, us, "us")
		b.add("core.hops_mean."+alg, frac(float64(hops), float64(delivered)), "hops")
	}
	serveRoute := func(seg []serve.RouteRequest) float64 {
		return perCallUS(len(seg), func() {
			for _, q := range seg {
				_, _, err := b.svc.Route(q.Deployment, q.Algorithm, q.Src, q.Dst)
				b.count(err)
			}
		})
	}
	// The service on the same segment, as the workload's clients see it:
	// mostly cache hits on churn-mixed, mostly misses on batch-miss.
	serveUS := serveRoute(seg)
	b.add("serve.route_us", serveUS, "us")
	// Its overhead over the routers is taken on the miss path, on pairs
	// the cache has not seen, so both sides compute every route: each
	// request under its own router, then through the service.
	miss := b.fx.missSegment(b.o.seed, n)
	coreMiss := perCallUS(n, func() {
		for _, q := range miss {
			buf = ref.routers[q.Algorithm].RouteInto(q.Src, q.Dst, buf).Path[:0]
		}
	})
	b.add("serve.route_overhead_us", serveRoute(miss)-coreMiss, "us")

	// Batches, in-process and over the binary transport.
	seg = segment()
	serveBatch := perCallUS(n, func() {
		for lo := 0; lo < n; lo += batchSize {
			for _, r := range b.svc.Batch(seg[lo:min(lo+batchSize, n)]) {
				b.count(respErr(r))
			}
		}
	})
	conn, err := fleet.Dial(b.tp.bin.Addr(), 0)
	if err != nil {
		return err
	}
	defer conn.Close()
	seg = segment()
	fleetBatch := perCallUS(n, func() {
		for lo := 0; lo < n; lo += batchSize {
			resps, err := conn.Batch(seg[lo:min(lo+batchSize, n)])
			if err != nil {
				b.count(err)
				return
			}
			for _, r := range resps {
				b.count(respErr(r))
			}
		}
	})
	b.add("serve.batch_us_per_route", serveBatch, "us")
	b.add("fleet.batch_us", fleetBatch*batchSize, "us")
	b.add("fleet.overhead_us_per_route", fleetBatch-serveBatch, "us")

	// Single routes over HTTP/JSON, from one client, on a fresh segment
	// of the same stream.
	seg = segment()
	httpRoute := perCallUS(n, func() {
		for _, q := range seg {
			_, err := b.tp.route(q)
			b.count(err)
		}
	})
	b.add("serve.http.route_us", httpRoute, "us")
	b.add("serve.http.overhead_us", httpRoute-serveUS, "us")
	return nil
}

// shadowRepairs replays the start of the churn schedule on two shadow
// copies of the fixture. On one, each public repair call of each
// substrate is timed on its own; on the other, the core fan-out that
// runs them together, as the service does.
func (b *bench) shadowRepairs() error {
	split, err := deployState(topoState{})
	if err != nil {
		return err
	}
	fan, err := deployState(topoState{})
	if err != nil {
		return err
	}
	sm, sb, sg := core.BuildSubstrates(split, true, true, true, nil)
	fm, fb, fg := core.BuildSubstrates(fan, true, true, true, nil)
	tr := newTracer()
	for i := 0; i < b.p.shadowMutations; i++ {
		m := b.sched.at(i)
		k := m.kind
		if k != mutMove {
			for _, u := range m.nodes {
				split.SetAlive(u, k == mutRevive)
				fan.SetAlive(u, k == mutRevive)
			}
			timeCall(tr, "safety.repair."+k, func() { sm.Repair(m.nodes...) })
			timeCall(tr, "bound.repair."+k, func() { sb.Repair(m.nodes) })
			timeCall(tr, "planar.repair."+k, func() { sg.Repair(m.nodes) })
			timeCall(tr, "core.repair_substrates."+k, func() { core.RepairSubstrates(fm, fb, fg, m.nodes) })
			continue
		}
		start := time.Now()
		dirty, err := split.SetPositions(m.moves)
		tr.add("topo.set_positions", time.Since(start))
		if err != nil {
			return err
		}
		dirty = slices.Clone(dirty) // SetPositions reuses its result buffer
		timeCall(tr, "safety.repair."+k, func() { sm.RepairMoved(dirty) })
		timeCall(tr, "bound.repair."+k, func() { sb.RepairMoved(dirty) })
		timeCall(tr, "planar.repair."+k, func() { sg.RepairRows(dirty) })
		fdirty, err := fan.SetPositions(m.moves)
		if err != nil {
			return err
		}
		fdirty = slices.Clone(fdirty)
		timeCall(tr, "core.repair_substrates."+k, func() { core.RepairSubstratesMoved(fm, fb, fg, fdirty) })
	}
	b.add("topo.set_positions_us", spanMeanUS("topo.set_positions", tr), "us")
	for _, layer := range []string{"safety.repair", "bound.repair", "planar.repair", "core.repair_substrates"} {
		for _, k := range []string{mutFail, mutRevive, mutMove} {
			b.add(layer+"_us."+k, spanMeanUS(layer+"."+k, tr), "us")
		}
	}
	return nil
}

func respErr(r serve.RouteResponse) error {
	if r.Err != "" {
		return errors.New(r.Err)
	}
	return nil
}
