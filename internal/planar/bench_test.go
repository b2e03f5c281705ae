package planar

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

// BenchmarkPlanarBuild times the Gabriel build of every row.
func BenchmarkPlanarBuild(bb *testing.B) {
	net := benchNet(bb)
	bb.ReportAllocs()
	for i := 0; i < bb.N; i++ {
		Build(net, GabrielGraph)
	}
}

// BenchmarkPlanarRepairFail times Repair after 4 random nodes fail; their
// revival and its repair run untimed so every iteration starts from the
// intact network.
func BenchmarkPlanarRepairFail(bb *testing.B) {
	net := benchNet(bb)
	g := Build(net, GabrielGraph)
	rng := rand.New(rand.NewPCG(1, 2))
	nodes := make([]topo.NodeID, 4)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		for j, u := range rng.Perm(net.N())[:len(nodes)] {
			nodes[j] = topo.NodeID(u)
			net.SetAlive(nodes[j], false)
		}
		g.Repair(nodes)
		bb.StopTimer()
		for _, u := range nodes {
			net.SetAlive(u, true)
		}
		g.Repair(nodes)
		bb.StartTimer()
	}
}

// BenchmarkPlanarRepairMove times RepairRows after a drift batch of 8
// nodes (σ = 2 m) alternating between the drifted and home positions;
// SetPositions runs untimed.
func BenchmarkPlanarRepairMove(bb *testing.B) {
	net := benchNet(bb)
	g := Build(net, GabrielGraph)
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
		g.RepairRows(dirty)
	}
}
