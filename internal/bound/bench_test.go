package bound

import (
	"math/rand/v2"
	"runtime"
	"slices"
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

// BenchmarkBoundRepairMove times RepairMoved after a move batch on
// FA-800-42:
//
//   - drift-8: a drift batch of 8 nodes (σ = 2 m), alternating between
//     the drifted and home positions.
//   - perfbench-16: the shape of the benchmark's churn-mixed move, 16
//     moves: the 8 nodes the previous batch drifted are sent home and 8
//     other nodes drift (σ = 2 m, clamped to the field) from theirs.
func BenchmarkBoundRepairMove(bb *testing.B) {
	bb.Run("drift-8", func(bb *testing.B) {
		net := benchNet(bb)
		rng := rand.New(rand.NewPCG(3, 4))
		away := make([]topo.Move, 8)
		home := make([]topo.Move, len(away))
		for i, u := range rng.Perm(net.N())[:len(away)] {
			p := net.Pos(topo.NodeID(u))
			home[i] = topo.Move{Node: topo.NodeID(u), X: p.X, Y: p.Y}
			away[i] = topo.Move{Node: topo.NodeID(u), X: p.X + 2*rng.NormFloat64(), Y: p.Y + 2*rng.NormFloat64()}
		}
		n := 0
		benchMoves(bb, net, func() []topo.Move {
			if n++; n%2 == 0 {
				return home
			}
			return away
		})
	})
	bb.Run("perfbench-16", func(bb *testing.B) {
		net := benchNet(bb)
		rng := rand.New(rand.NewPCG(5, 6))
		home := net.Positions()
		var drifted []topo.NodeID
		moves := make([]topo.Move, 0, 16)
		benchMoves(bb, net, func() []topo.Move {
			moves = moves[:0]
			for _, u := range drifted {
				moves = append(moves, topo.Move{Node: u, X: home[u].X, Y: home[u].Y})
			}
			prev := drifted
			drifted = nil
			for _, u := range rng.Perm(net.N()) {
				if len(drifted) == 8 {
					break
				}
				if !slices.Contains(prev, topo.NodeID(u)) {
					drifted = append(drifted, topo.NodeID(u))
				}
			}
			for _, u := range drifted {
				p := home[u]
				moves = append(moves, topo.Move{Node: u,
					X: min(max(p.X+2*rng.NormFloat64(), net.Field.Min.X), net.Field.Max.X),
					Y: min(max(p.Y+2*rng.NormFloat64(), net.Field.Min.Y), net.Field.Max.Y)})
			}
			return moves
		})
	})
}

// benchMoves times RepairMoved after each batch next returns on boundaries
// traced on net; building the batch and SetPositions run untimed.
func benchMoves(bb *testing.B, net *topo.Network, next func() []topo.Move) {
	b := FindHoles(net)
	bb.ReportAllocs()
	bb.ResetTimer()
	for i := 0; i < bb.N; i++ {
		bb.StopTimer()
		dirty, err := net.SetPositions(next())
		if err != nil {
			bb.Fatal(err)
		}
		bb.StartTimer()
		b.RepairMoved(dirty)
	}
}

// mallocs counts the heap allocations f makes, single-threaded like
// testing.AllocsPerRun so par.For runs inline.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestFindHolesAllocs pins the allocations of the full build on
// FA-800-42 on one P, so that per-node allocations do not creep back:
// the stuck analysis's arenas and flat arrays, the successor table, the
// orbit scratch sized from the slot and node counts, the orbit spans,
// and the hole set. The budget is the count, 47, plus 10%.
func TestFindHolesAllocs(t *testing.T) {
	net := benchNet(t)
	allocs := testing.AllocsPerRun(5, func() { FindHoles(net) })
	t.Logf("FindHoles on FA-800-42: %.0f allocations", allocs)
	if allocs > 52 {
		t.Fatalf("FindHoles allocates %.0f objects on FA-800-42; budget 52", allocs)
	}
}

// TestBoundRepairAllocs pins the steady-state allocations of a repair on
// FA-800-42: a 4-node fail or revive and an 8-node drift, 14 or 15
// each. What remains is retained state — the stuck analysis laid out
// afresh and the rebuilt hole set (one array each for holes, cycles and
// the node index) — plus the analysis arenas. A per-walk cache (every
// re-traced walk copying its cycle) costs over 7k here, and one
// allocation per dirty node some hundreds.
func TestBoundRepairAllocs(t *testing.T) {
	net := benchNet(t)
	b := FindHoles(net)
	rng := rand.New(rand.NewPCG(1, 2))
	nodes := make([]topo.NodeID, 4)
	const rounds, warm = 20, 4
	var fail, revive float64
	for i := 0; i < rounds+warm; i++ {
		for j, u := range rng.Perm(net.N())[:len(nodes)] {
			nodes[j] = topo.NodeID(u)
		}
		for _, alive := range []bool{false, true} {
			for _, u := range nodes {
				net.SetAlive(u, alive)
			}
			n := mallocs(func() { b.Repair(nodes) })
			if i < warm {
				continue
			}
			if alive {
				revive += n / rounds
			} else {
				fail += n / rounds
			}
		}
	}
	if fail > 20 || revive > 20 {
		t.Fatalf("4-node repair allocates %.0f (fail) / %.0f (revive) objects; budget 20", fail, revive)
	}

	away := make([]topo.Move, 8)
	home := make([]topo.Move, len(away))
	for i, u := range rng.Perm(net.N())[:len(away)] {
		p := net.Pos(topo.NodeID(u))
		home[i] = topo.Move{Node: topo.NodeID(u), X: p.X, Y: p.Y}
		away[i] = topo.Move{Node: topo.NodeID(u), X: p.X + 2*rng.NormFloat64(), Y: p.Y + 2*rng.NormFloat64()}
	}
	var move float64
	for i := 0; i < rounds+warm; i++ {
		batch := away
		if i%2 == 1 {
			batch = home
		}
		dirty, err := net.SetPositions(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n := mallocs(func() { b.RepairMoved(dirty) }); i >= warm {
			move += n / rounds
		}
	}
	if move > 20 {
		t.Fatalf("8-node move repair allocates %.0f objects; budget 20", move)
	}
	t.Logf("allocs per repair: fail %.0f, revive %.0f, move %.0f", fail, revive, move)
}
