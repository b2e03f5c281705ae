package core

import (
	"sync"
	"time"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// SubstrateTimings reports the wall time each substrate's repair pass
// took inside a RepairSubstrates/RepairSubstratesMoved fan-out. The
// repairs run concurrently, so the spans overlap — the fan-out's total
// wall time is roughly the maximum, not the sum. A zero span means the
// substrate was nil (skipped). The serving layer feeds these into its
// per-substrate repair histograms and event journal.
type SubstrateTimings struct {
	Safety time.Duration
	Bound  time.Duration
	Planar time.Duration
}

// timed wraps a fan-out task so its wall time lands in *d.
func timed(d *time.Duration, f func()) func() {
	return func() {
		start := time.Now()
		f()
		*d = time.Since(start)
	}
}

// BuildSubstrates constructs the routing substrates the algorithm table
// needs — the safety information model, the BOUNDHOLE boundaries, and
// the Gabriel graph — concurrently (each build is also internally
// parallel across GOMAXPROCS). Unneeded substrates are skipped by
// passing false and returned nil. edgeRule overrides the safety model's
// edge-node rule (nil for the default). This is the one fan-out the
// facade, the serving layer, and the experiment harness all share.
//
// A panic in any build is re-raised on the calling goroutine, so a
// build bug surfaces where the caller's recover machinery (e.g.
// net/http's handler recovery in wasnd) can contain it.
func BuildSubstrates(net *topo.Network, needSafety, needBounds, needPlanar bool, edgeRule safety.EdgeRule) (*safety.Model, *bound.Boundaries, *planar.Graph) {
	var (
		m *safety.Model
		b *bound.Boundaries
		g *planar.Graph
	)
	var tasks []func()
	if needSafety {
		tasks = append(tasks, func() {
			if edgeRule != nil {
				m = safety.Build(net, safety.WithEdgeRule(edgeRule))
			} else {
				m = safety.Build(net)
			}
		})
	}
	if needBounds {
		tasks = append(tasks, func() { b = bound.FindHoles(net) })
	}
	if needPlanar {
		tasks = append(tasks, func() { g = planar.Build(net, planar.GabrielGraph) })
	}
	fanOut(tasks)
	return m, b, g
}

// RepairSubstrates incrementally repairs previously built substrates
// after the liveness of the given nodes changed (topo.Network.SetAlive
// already applied): the safety model relabels from the failure
// neighborhood, BOUNDHOLE re-analyzes only that neighborhood before
// re-deriving its walks, and the planar graph recomputes only the rows
// whose witness sets changed. Nil substrates are skipped. The three repairs run
// concurrently like BuildSubstrates (same panic propagation).
//
// Each repaired substrate is identical to what a from-scratch
// BuildSubstrates on the mutated network would produce — pinned by the
// differential tests and the FuzzRepairSubstrates battery — but the
// work scales with the failure
// neighborhood instead of the network. Repairs happen in place, so
// routers already holding these substrate pointers serve the mutated
// topology immediately and need not be rebuilt; callers must keep
// repairs away from in-flight routes exactly as they do SetAlive (see
// Router). The returned timings break the fan-out down by substrate.
func RepairSubstrates(m *safety.Model, b *bound.Boundaries, g *planar.Graph, changed []topo.NodeID) SubstrateTimings {
	var t SubstrateTimings
	var tasks []func()
	if m != nil {
		tasks = append(tasks, timed(&t.Safety, func() { m.Repair(changed...) }))
	}
	if b != nil {
		tasks = append(tasks, timed(&t.Bound, func() { b.Repair(changed) }))
	}
	if g != nil {
		tasks = append(tasks, timed(&t.Planar, func() { g.Repair(changed) }))
	}
	fanOut(tasks)
	return t
}

// RepairSubstratesMoved incrementally repairs previously built
// substrates after node positions changed (topo.Network.SetPositions
// already applied). dirty is the geometric dirty set SetPositions
// returned, in its sorted order — every node whose own position, in-range set, or neighbor
// coordinates changed. The safety model relabels a reset region grown
// from the dirty set, BOUNDHOLE re-analyzes the dirty nodes and
// re-derives its walks, and the planar graph rebuilds
// exactly the dirty rows. Nil substrates are skipped; the repairs run
// concurrently like BuildSubstrates (same panic propagation).
//
// Like RepairSubstrates, each repaired substrate is identical to a
// from-scratch BuildSubstrates on the moved network, but the work
// scales with the moved nodes' geometric neighborhoods. Callers must
// serialize against in-flight routes as with SetAlive — and because
// moves can resize CSR rows, any per-edge state keyed by AdjSlots must
// be length-checked or generation-stamped by its owner (the engine's
// scratch and the boundary claim arrays already are). The returned
// timings break the fan-out down by substrate.
func RepairSubstratesMoved(m *safety.Model, b *bound.Boundaries, g *planar.Graph, dirty []topo.NodeID) SubstrateTimings {
	var t SubstrateTimings
	var tasks []func()
	if m != nil {
		tasks = append(tasks, timed(&t.Safety, func() { m.RepairMoved(dirty) }))
	}
	if b != nil {
		tasks = append(tasks, timed(&t.Bound, func() { b.RepairMoved(dirty) }))
	}
	if g != nil {
		tasks = append(tasks, timed(&t.Planar, func() { g.RepairRows(dirty) }))
	}
	fanOut(tasks)
	return t
}

// fanOut runs the tasks concurrently, waits for all of them, and
// re-raises the first panic on the calling goroutine.
func fanOut(tasks []func()) {
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	for _, f := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			f()
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
