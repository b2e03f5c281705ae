package trace

import (
	"testing"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

func observedRouters(t *testing.T, net *topo.Network) []core.ObservedRouter {
	t.Helper()
	m := safety.Build(net)
	b := bound.FindHoles(net)
	g := planar.Build(net, planar.GabrielGraph)
	return []core.ObservedRouter{
		core.NewGF(net, b),
		core.NewLGF(net),
		core.NewSLGF(net, m),
		core.NewSLGF2(net, m),
		core.NewGPSR(net, g),
		core.NewIdeal(net, core.IdealMinHop),
	}
}

// The differential contract of the observer hook: for every algorithm,
// the recorded events must reproduce the result path hop for hop, and
// the per-phase event counts must equal Result.PhaseHops exactly.
func TestRecorderMatchesResult(t *testing.T) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelFA, 500, 7))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	pairs := topo.RoutablePairs(net, 24, 60)
	if len(pairs) == 0 {
		t.Fatal("no routable pairs")
	}
	for _, r := range observedRouters(t, net) {
		t.Run(r.Name(), func(t *testing.T) {
			routed := 0
			for _, p := range pairs {
				rec := Acquire()
				res := r.RouteObserved(p[0], p[1], nil, rec)
				if !res.Delivered {
					Release(rec)
					continue
				}
				routed++
				ev := rec.Events()
				if len(ev) != res.Hops() {
					t.Fatalf("%d->%d: %d events, %d hops", p[0], p[1], len(ev), res.Hops())
				}
				var phases core.PhaseCounts
				for i, e := range ev {
					if e.Seq != i+1 {
						t.Fatalf("event %d has seq %d", i, e.Seq)
					}
					if e.From != res.Path[i] || e.To != res.Path[i+1] {
						t.Fatalf("event %d is %d->%d, path says %d->%d",
							i, e.From, e.To, res.Path[i], res.Path[i+1])
					}
					phases[e.Phase]++
				}
				if phases != res.PhaseHops {
					t.Fatalf("observed phases %v != result %v", phases, res.PhaseHops)
				}
				tr := rec.Build(p[0], p[1], res)
				Release(rec)
				if tr.Src != p[0] || tr.Dst != p[1] || len(tr.Events) != res.Hops() {
					t.Fatalf("built trace wrong: %+v", tr.Summary())
				}
			}
			if routed == 0 {
				t.Fatal("no pair delivered")
			}
		})
	}
}

// A released recorder must come back empty, and pooled reuse must not
// leak events between routes.
func TestRecorderPoolReset(t *testing.T) {
	r := Acquire()
	r.ObserveHop(1, 1, 2, core.PhaseGreedy)
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	Release(r)
	r2 := Acquire()
	defer Release(r2)
	if r2.Len() != 0 {
		t.Fatalf("pooled recorder not reset: %d events", r2.Len())
	}
}

// With the recorder pool warm and the event slice grown, observing a
// route allocates only in Build (the defensive copy): Acquire,
// ObserveHop, and Release are allocation-free.
func TestRecorderObserveAllocFree(t *testing.T) {
	// Warm: grow the slice past the length used below.
	r := Acquire()
	for i := 0; i < 64; i++ {
		r.ObserveHop(i+1, topo.NodeID(i), topo.NodeID(i+1), core.PhaseGreedy)
	}
	Release(r)
	allocs := testing.AllocsPerRun(100, func() {
		rec := Acquire()
		for i := 0; i < 32; i++ {
			rec.ObserveHop(i+1, topo.NodeID(i), topo.NodeID(i+1), core.PhasePerimeter)
		}
		Release(rec)
	})
	// The race runtime allocates on its own; CI pins this without -race.
	if allocs != 0 && !raceEnabled {
		t.Errorf("observe cycle allocates %.1f/op, want 0", allocs)
	}
}
