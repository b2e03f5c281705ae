package topo

import (
	"math/rand/v2"
	"sort"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

func field200() geom.Rect { return geom.FromCorners(geom.Pt(0, 0), geom.Pt(200, 200)) }

// lineNetwork builds nodes at (0,0), (10,0), (20,0), ... with radius 10,
// forming a path graph.
func lineNetwork(t *testing.T, n int) *Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*10, 0)
	}
	net, err := NewNetwork(pts, 10, field200())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, 0, field200()); err == nil {
		t.Error("zero radius accepted")
	}
	if _, err := NewNetwork(nil, -5, field200()); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestLineNetworkAdjacency(t *testing.T) {
	net := lineNetwork(t, 5)
	tests := []struct {
		u    NodeID
		want []NodeID
	}{
		{u: 0, want: []NodeID{1}},
		{u: 1, want: []NodeID{0, 2}},
		{u: 2, want: []NodeID{1, 3}},
		{u: 4, want: []NodeID{3}},
	}
	for _, tt := range tests {
		got := net.Neighbors(tt.u)
		if len(got) != len(tt.want) {
			t.Errorf("Neighbors(%d) = %v, want %v", tt.u, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Neighbors(%d) = %v, want %v", tt.u, got, tt.want)
				break
			}
		}
	}
	if got := net.EdgeCount(); got != 4 {
		t.Errorf("EdgeCount = %d, want 4", got)
	}
	if got := net.AvgDegree(); got != 8.0/5 {
		t.Errorf("AvgDegree = %v, want 1.6", got)
	}
}

func TestInRangeAndDist(t *testing.T) {
	net := lineNetwork(t, 3)
	if !net.InRange(0, 1) || net.InRange(0, 2) {
		t.Error("InRange wrong on line network")
	}
	if net.InRange(1, 1) {
		t.Error("node in range of itself")
	}
	if got := net.Dist(0, 2); got != 20 {
		t.Errorf("Dist(0,2) = %v, want 20", got)
	}
}

func TestNodeFailureFiltersQueries(t *testing.T) {
	net := lineNetwork(t, 4)
	net.SetAlive(1, false)
	if got := net.Neighbors(0); len(got) != 0 {
		t.Errorf("Neighbors(0) after failure = %v, want empty", got)
	}
	if got := net.Neighbors(2); len(got) != 1 || got[0] != 3 {
		t.Errorf("Neighbors(2) after failure = %v, want [3]", got)
	}
	if net.Neighbors(1) != nil {
		t.Error("dead node should have no neighbors")
	}
	if got := len(net.AliveIDs()); got != 3 {
		t.Errorf("AliveIDs count = %d, want 3", got)
	}
	net.SetAlive(1, true)
	if got := net.Neighbors(0); len(got) != 1 {
		t.Errorf("Neighbors(0) after revival = %v", got)
	}
}

// Grid-built adjacency must exactly match the O(n^2) brute force.
func TestAdjacencyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.IntN(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*200, rng.Float64()*200)
		}
		net, err := NewNetwork(pts, 20, field200())
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			var want []NodeID
			for v := 0; v < n; v++ {
				if v != u && geom.Dist2(pts[u], pts[v]) <= 400 {
					want = append(want, NodeID(v))
				}
			}
			got := net.Neighbors(NodeID(u))
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: got %d neighbors, want %d", trial, u, len(got), len(want))
			}
			sorted := append([]NodeID(nil), got...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			for i := range want {
				if sorted[i] != want[i] {
					t.Fatalf("trial %d node %d: neighbors %v, want %v", trial, u, sorted, want)
				}
			}
		}
	}
}

func TestPathLength(t *testing.T) {
	net := lineNetwork(t, 4)
	if got := net.PathLength([]NodeID{0, 1, 2, 3}); got != 30 {
		t.Errorf("PathLength = %v, want 30", got)
	}
	if got := net.PathLength([]NodeID{2}); got != 0 {
		t.Errorf("single-node path length = %v, want 0", got)
	}
	if got := net.PathLength(nil); got != 0 {
		t.Errorf("empty path length = %v, want 0", got)
	}
}

func TestSymmetry(t *testing.T) {
	// Adjacency of a unit-disk graph is symmetric.
	rng := rand.New(rand.NewPCG(3, 4))
	pts := make([]geom.Point, 300)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*200, rng.Float64()*200)
	}
	net, err := NewNetwork(pts, 20, field200())
	if err != nil {
		t.Fatal(err)
	}
	for u := range net.Nodes {
		for _, v := range net.Neighbors(NodeID(u)) {
			found := false
			for _, w := range net.Neighbors(v) {
				if w == NodeID(u) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", u, v)
			}
		}
	}
}

// TestNewNetworkAllocs pins the allocations of building FA-800-42's
// network on one P, so that slice growth does not creep back: the node
// table, the row buffer and row headers, the CSR arrays, the grid's
// cells in one array and the liveness bitset. The budget is the count,
// 19, plus 10%.
func TestNewNetworkAllocs(t *testing.T) {
	dep, err := Deploy(DefaultDeployConfig(ModelFA, 800, 42))
	if err != nil {
		t.Fatal(err)
	}
	pos, net := dep.Net.Positions(), dep.Net
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewNetwork(pos, net.Radius, net.Field); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewNetwork on FA-800-42: %.0f allocations", allocs)
	if allocs > 21 {
		t.Fatalf("NewNetwork allocates %.0f objects on FA-800-42; budget 21", allocs)
	}
}
