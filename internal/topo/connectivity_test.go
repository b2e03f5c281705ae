package topo

import (
	"math"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

// twoClusters builds two line segments far apart: nodes 0-2 and 3-5.
func twoClusters(t *testing.T) *Network {
	t.Helper()
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0),
		geom.Pt(100, 100), geom.Pt(110, 100), geom.Pt(120, 100),
	}
	net, err := NewNetwork(pts, 10, field200())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestComponents(t *testing.T) {
	net := twoClusters(t)
	labels, count := Components(net)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first cluster split")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("second cluster split")
	}
	if labels[0] == labels[3] {
		t.Error("clusters merged")
	}

	net.SetAlive(4, false)
	labels, count = Components(net)
	if count != 3 {
		t.Errorf("after failure count = %d, want 3", count)
	}
	if labels[4] != -1 {
		t.Errorf("dead node label = %d, want -1", labels[4])
	}
}

func TestConnected(t *testing.T) {
	net := twoClusters(t)
	if !Connected(net, 0, 2) {
		t.Error("0 and 2 should be connected")
	}
	if Connected(net, 0, 3) {
		t.Error("clusters should not be connected")
	}
	if !Connected(net, 1, 1) {
		t.Error("node should be connected to itself")
	}
	net.SetAlive(2, false)
	if Connected(net, 0, 2) {
		t.Error("dead node reported connected")
	}
}

func TestHopDistances(t *testing.T) {
	net := lineNetwork(t, 5)
	dist := HopDistances(net, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	net.SetAlive(2, false)
	dist = HopDistances(net, 0)
	if dist[3] != -1 || dist[4] != -1 {
		t.Errorf("nodes beyond failure should be unreachable, got %v", dist)
	}
}

func TestShortestHopPath(t *testing.T) {
	net := lineNetwork(t, 5)
	path := ShortestHopPath(net, 0, 4)
	if len(path) != 5 {
		t.Fatalf("path = %v, want 5 nodes", path)
	}
	if path[0] != 0 || path[4] != 4 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	if p := ShortestHopPath(net, 2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("self path = %v", p)
	}
	net.SetAlive(2, false)
	if p := ShortestHopPath(net, 0, 4); p != nil {
		t.Errorf("expected nil path across failure, got %v", p)
	}
}

func TestShortestEuclideanPath(t *testing.T) {
	// Triangle where the two-hop route is shorter than... build a case
	// where hop-shortest and length-shortest differ:
	//   0 --- 1 --- 4  (direct chain along x)
	//   0 - 2 - 3 - 4 (detour)
	// radius covers 0-1 (long edge 19) and a shorter zig-zag.
	pts := []geom.Point{
		geom.Pt(0, 0),  // 0
		geom.Pt(19, 0), // 1
		geom.Pt(38, 0), // 2 (dest)
		geom.Pt(10, 2), // 3
		geom.Pt(25, 2), // 4
	}
	net, err := NewNetwork(pts, 20, field200())
	if err != nil {
		t.Fatal(err)
	}
	hop := ShortestHopPath(net, 0, 2)
	euc := ShortestEuclideanPath(net, 0, 2)
	if hop == nil || euc == nil {
		t.Fatal("paths should exist")
	}
	if len(euc) < len(hop) {
		t.Errorf("euclidean path cannot have fewer hops than hop-optimal: %v vs %v", euc, hop)
	}
	if net.PathLength(euc) > net.PathLength(hop)+1e-9 {
		t.Errorf("euclidean-shortest longer than hop path: %v > %v",
			net.PathLength(euc), net.PathLength(hop))
	}
	// Endpoint and consecutive-range invariants.
	for i := 1; i < len(euc); i++ {
		if !net.InRange(euc[i-1], euc[i]) {
			t.Errorf("euclidean path uses non-edge %d-%d", euc[i-1], euc[i])
		}
	}
	if p := ShortestEuclideanPath(net, 1, 1); len(p) != 1 {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathsAgreeOnLine(t *testing.T) {
	net := lineNetwork(t, 8)
	hop := ShortestHopPath(net, 0, 7)
	euc := ShortestEuclideanPath(net, 0, 7)
	if len(hop) != len(euc) {
		t.Fatalf("line network: hop %v vs euclidean %v", hop, euc)
	}
	if math.Abs(net.PathLength(hop)-net.PathLength(euc)) > 1e-9 {
		t.Error("line network: path lengths differ")
	}
}

func TestPathsOnDeadEndpoints(t *testing.T) {
	net := lineNetwork(t, 3)
	net.SetAlive(0, false)
	if ShortestHopPath(net, 0, 2) != nil {
		t.Error("path from dead source should be nil")
	}
	if ShortestEuclideanPath(net, 2, 0) != nil {
		t.Error("path to dead dest should be nil")
	}
	if d := HopDistances(net, 0); d[1] != -1 {
		t.Error("distances from dead source should be unreachable")
	}
}

func TestRoutablePairs(t *testing.T) {
	dep, err := Deploy(DefaultDeployConfig(ModelFA, 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	labels, _ := Components(net)
	pairs := RoutablePairs(net, 10, 80)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs, want 10", len(pairs))
	}
	seen := make(map[[2]NodeID]bool)
	for _, p := range pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
		if labels[p[0]] < 0 || labels[p[0]] != labels[p[1]] {
			t.Fatalf("pair %v spans components", p)
		}
		if d := net.Dist(p[0], p[1]); d < 80 {
			t.Fatalf("pair %v only %.1f apart", p, d)
		}
	}
	// Deterministic.
	again := RoutablePairs(net, 10, 80)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("RoutablePairs is not deterministic")
		}
	}
	// A dead node never appears.
	victim := pairs[0][0]
	net.SetAlive(victim, false)
	for _, p := range RoutablePairs(net, 300, 80) {
		if p[0] == victim || p[1] == victim {
			t.Fatalf("dead node %d in pair %v", victim, p)
		}
	}
	net.SetAlive(victim, true)
}

// HopDistances returns the BFS hop count from src to every node
// (-1 when unreachable). This is the "ideal" minimum-hop reference.
func HopDistances(net *Network, src NodeID) []int {
	dist := make([]int, net.N())
	for i := range dist {
		dist[i] = -1
	}
	if !net.Alive(src) {
		return dist
	}
	s := acquireSearch(net.N())
	defer releaseSearch(s)
	dist[src] = 0
	queue := append(s.queue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestHopPath returns a minimum-hop path from src to dst (inclusive),
// or nil when unreachable.
func ShortestHopPath(net *Network, src, dst NodeID) []NodeID {
	return ShortestHopPathInto(net, src, dst, nil)
}

// ShortestEuclideanPath returns the minimum total-Euclidean-length path
// from src to dst (Dijkstra over edge lengths), or nil when unreachable.
// This is the "ideal routing path" reference of Fig. 1(a).
func ShortestEuclideanPath(net *Network, src, dst NodeID) []NodeID {
	return ShortestEuclideanPathInto(net, src, dst, nil)
}
