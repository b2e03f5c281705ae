package topo

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

// driftBatch draws k random moves: mostly small Gaussian drift, with an
// occasional long teleport so edges cross range boundaries both ways.
func driftBatch(rng *rand.Rand, net *Network, k int, sigma float64) []Move {
	moves := make([]Move, 0, k)
	for len(moves) < k {
		u := NodeID(rng.IntN(net.N()))
		p := net.Pos(u)
		var np geom.Point
		if rng.Float64() < 0.1 {
			np = geom.Pt(
				net.Field.Min.X+rng.Float64()*net.Field.Width(),
				net.Field.Min.Y+rng.Float64()*net.Field.Height(),
			)
		} else {
			np = geom.Pt(p.X+rng.NormFloat64()*sigma, p.Y+rng.NormFloat64()*sigma)
			np.X = min(max(np.X, net.Field.Min.X), net.Field.Max.X)
			np.Y = min(max(np.Y, net.Field.Min.Y), net.Field.Max.Y)
		}
		moves = append(moves, Move{Node: u, X: np.X, Y: np.Y})
	}
	return moves
}

// requireCSREqual compares every CSR artifact of got against a fresh
// build over the same positions.
func requireCSREqual(t *testing.T, got, fresh *Network) {
	t.Helper()
	if !slices.Equal(got.adjOff, fresh.adjOff) {
		t.Fatalf("adjOff diverged from fresh build")
	}
	if !slices.Equal(got.adjList, fresh.adjList) {
		t.Fatalf("adjList diverged from fresh build")
	}
	if !slices.Equal(got.adjAng, fresh.adjAng) {
		t.Fatalf("adjAng diverged from fresh build")
	}
	if !slices.Equal(got.adjX, fresh.adjX) || !slices.Equal(got.adjY, fresh.adjY) {
		t.Fatalf("packed neighbor positions diverged from fresh build")
	}
	if !slices.Equal(got.adjRot, fresh.adjRot) || !slices.Equal(got.adjRev, fresh.adjRev) {
		t.Fatalf("rotations or reverse slots diverged from fresh build")
	}
}

func TestSetPositionsMatchesFreshBuild(t *testing.T) {
	for _, tc := range []struct {
		model DeployModel
		n     int
		seed  uint64
	}{
		{ModelIA, 200, 3},
		{ModelFA, 240, 7},
		{ModelOB, 260, 11},
	} {
		t.Run(tc.model.String(), func(t *testing.T) {
			dep, err := Deploy(DefaultDeployConfig(tc.model, tc.n, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			net := dep.Net
			rng := rand.New(rand.NewPCG(tc.seed, 0xfeedbeef))
			for step := 0; step < 12; step++ {
				moves := driftBatch(rng, net, 1+rng.IntN(8), 5)
				dirty, err := net.SetPositions(moves)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.IsSorted(dirty) {
					t.Fatalf("step %d: dirty set not sorted", step)
				}
				for _, m := range moves {
					if !slices.Contains(dirty, m.Node) {
						t.Fatalf("step %d: moved node %d missing from dirty set", step, m.Node)
					}
				}
				fresh, err := NewNetwork(net.Positions(), net.Radius, net.Field)
				if err != nil {
					t.Fatal(err)
				}
				requireCSREqual(t, net, fresh)
			}
		})
	}
}

// TestSetPositionsWithDeadNodes pins that liveness is orthogonal to
// position repair: dead nodes move, stay in static rows, and their alive
// bits survive the CSR swap.
func TestSetPositionsWithDeadNodes(t *testing.T) {
	dep, err := Deploy(DefaultDeployConfig(ModelIA, 150, 21))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	rng := rand.New(rand.NewPCG(21, 42))
	for i := 0; i < 20; i++ {
		net.SetAlive(NodeID(rng.IntN(net.N())), false)
	}
	deadBefore := net.DeadCount()
	for step := 0; step < 6; step++ {
		moves := driftBatch(rng, net, 5, 8)
		if _, err := net.SetPositions(moves); err != nil {
			t.Fatal(err)
		}
	}
	if net.DeadCount() != deadBefore {
		t.Fatalf("dead count changed across moves: %d -> %d", deadBefore, net.DeadCount())
	}
	fresh, err := NewNetwork(net.Positions(), net.Radius, net.Field)
	if err != nil {
		t.Fatal(err)
	}
	requireCSREqual(t, net, fresh)
	for u := 0; u < net.N(); u++ {
		want := net.Nodes[u].Alive
		got := net.aliveBits[u>>6]&(1<<(uint(u)&63)) != 0
		if want != got {
			t.Fatalf("alive bit of %d diverged after moves", u)
		}
	}
}

// TestSetPositionsDirtySetSound pins the dirty-set contract: any node
// whose row content changed must be reported dirty.
func TestSetPositionsDirtySetSound(t *testing.T) {
	dep, err := Deploy(DefaultDeployConfig(ModelFA, 220, 5))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	rng := rand.New(rand.NewPCG(5, 99))
	for step := 0; step < 8; step++ {
		type rowSnap struct {
			row []NodeID
			ang []float64
		}
		before := make([]rowSnap, net.N())
		for u := 0; u < net.N(); u++ {
			before[u] = rowSnap{
				row: slices.Clone(net.AdjacencyRow(NodeID(u))),
				ang: slices.Clone(net.AdjacencyAngles(NodeID(u))),
			}
		}
		moves := driftBatch(rng, net, 3, 6)
		dirty, err := net.SetPositions(moves)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < net.N(); u++ {
			changed := !slices.Equal(before[u].row, net.AdjacencyRow(NodeID(u))) ||
				!slices.Equal(before[u].ang, net.AdjacencyAngles(NodeID(u)))
			if changed && !slices.Contains(dirty, NodeID(u)) {
				t.Fatalf("step %d: row of %d changed but not reported dirty", step, u)
			}
		}
	}
}

func TestSetPositionsRejectsUnknownNode(t *testing.T) {
	net := lineNetwork(t, 5)
	if _, err := net.SetPositions([]Move{{Node: 7, X: 0, Y: 0}}); err == nil {
		t.Fatal("expected error for out-of-range node id")
	}
	if _, err := net.SetPositions([]Move{{Node: -1, X: 0, Y: 0}}); err == nil {
		t.Fatal("expected error for negative node id")
	}
}

func TestSetPositionEdgeFlip(t *testing.T) {
	// Path graph 0-1-2; move node 2 next to node 0 so the 1-2 edge
	// survives and a 0-2 edge appears, then far away so it loses all.
	net := lineNetwork(t, 3)
	dirty, err := net.SetPosition(2, geom.Pt(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := []NodeID{0, 1, 2}; !slices.Equal(dirty, want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	if got := net.AdjacencyRow(0); !slices.Equal(got, []NodeID{1, 2}) {
		t.Fatalf("row(0) = %v after move-in", got)
	}
	if _, err := net.SetPosition(2, geom.Pt(100, 100)); err != nil {
		t.Fatal(err)
	}
	if got := net.AdjacencyRow(2); len(got) != 0 {
		t.Fatalf("row(2) = %v after move-out, want empty", got)
	}
	fresh, err := NewNetwork(net.Positions(), net.Radius, net.Field)
	if err != nil {
		t.Fatal(err)
	}
	requireCSREqual(t, net, fresh)
}

// SetPosition relocates one node. It is SetPositions on a single-move
// batch; prefer SetPositions for drift batches — the CSR rewrite cost is
// amortized across the whole batch.
func (net *Network) SetPosition(u NodeID, p geom.Point) ([]NodeID, error) {
	return net.SetPositions([]Move{{Node: u, X: p.X, Y: p.Y}})
}
