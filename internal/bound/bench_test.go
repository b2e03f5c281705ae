package bound

import (
	"math/rand/v2"
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// benchNet deploys FA-800-42, the benchmark's fixed network.
func benchNet(tb testing.TB) *topo.Network {
	tb.Helper()
	dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelFA, 800, 42))
	if err != nil {
		tb.Fatal(err)
	}
	return dep.Net
}

// BenchmarkFindHoles measures the full build: successor table, TENT on
// every node, every walk, and assembly.
func BenchmarkFindHoles(bb *testing.B) {
	net := benchNet(bb)
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		FindHoles(net)
	}
}

// benchLiveness times one side of a fail/revive cycle of 4 random nodes:
// Repair after the failure when timeFail, after the revival otherwise.
// The other side runs untimed so every iteration starts from the intact
// network.
func benchLiveness(bb *testing.B, timeFail bool) {
	net := benchNet(bb)
	b := FindHoles(net)
	rng := rand.New(rand.NewPCG(1, 2))
	nodes := make([]topo.NodeID, 4)
	set := func(alive, timed bool) {
		if !timed {
			bb.StopTimer()
		}
		for _, u := range nodes {
			net.SetAlive(u, alive)
		}
		b.Repair(nodes)
		if !timed {
			bb.StartTimer()
		}
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		for j, u := range rng.Perm(net.N())[:len(nodes)] {
			nodes[j] = topo.NodeID(u)
		}
		set(false, timeFail)
		set(true, !timeFail)
	}
}

func BenchmarkBoundRepairFail(bb *testing.B)   { benchLiveness(bb, true) }
func BenchmarkBoundRepairRevive(bb *testing.B) { benchLiveness(bb, false) }

// BenchmarkBoundRepairMove times RepairMoved after a drift batch of 8
// nodes (σ = 2 m), alternating between the drifted and home positions;
// SetPositions itself runs untimed.
func BenchmarkBoundRepairMove(bb *testing.B) {
	net := benchNet(bb)
	b := FindHoles(net)
	rng := rand.New(rand.NewPCG(3, 4))
	away := make([]topo.Move, 8)
	home := make([]topo.Move, len(away))
	for i, u := range rng.Perm(net.N())[:len(away)] {
		p := net.Pos(topo.NodeID(u))
		home[i] = topo.Move{Node: topo.NodeID(u), X: p.X, Y: p.Y}
		away[i] = topo.Move{Node: topo.NodeID(u), X: p.X + 2*rng.NormFloat64(), Y: p.Y + 2*rng.NormFloat64()}
	}
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		batch := away
		if i%2 == 1 {
			batch = home
		}
		bb.StopTimer()
		dirty, err := net.SetPositions(batch)
		if err != nil {
			bb.Fatal(err)
		}
		bb.StartTimer()
		b.RepairMoved(dirty)
	}
}
