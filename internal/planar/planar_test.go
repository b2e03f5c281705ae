package planar

import (
	"math"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

func buildNet(t *testing.T, pts []geom.Point, radius float64) *topo.Network {
	t.Helper()
	net, err := topo.NewNetwork(pts, radius, geom.FromCorners(geom.Pt(0, 0), geom.Pt(200, 200)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func deployed(t *testing.T, model topo.DeployModel, n int, seed uint64) *topo.Network {
	t.Helper()
	dep, err := topo.Deploy(topo.DefaultDeployConfig(model, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return dep.Net
}

// neighbors lists u's kept neighbors in column (ascending id) order.
func neighbors(g *Graph, u topo.NodeID) []topo.NodeID {
	var out []topo.NodeID
	for j, v := range g.Net.AdjacencyRow(u) {
		if g.keep.Row(u)[j] {
			out = append(out, v)
		}
	}
	return out
}

// faceStepFrom is FaceStep keyed by nodes: the in-edge by the neighbor
// prev the walk arrived from (topo.NoNode on entry), the hop by its
// head.
func faceStepFrom(g *Graph, u, prev topo.NodeID, ref float64, ccw bool) topo.NodeID {
	back := int32(-1)
	if prev != topo.NoNode {
		j, _ := slices.BinarySearch(g.Net.AdjacencyRow(u), prev)
		back = int32(g.Net.AdjOffset(u) + j)
	}
	if s := g.FaceStep(u, back, ref, ccw); s >= 0 {
		return g.Net.AdjHead(s)
	}
	return topo.NoNode
}

// edgeCount returns the number of undirected kept edges.
func edgeCount(g *Graph) int {
	n := 0
	for _, k := range g.keep.At {
		if k {
			n++
		}
	}
	return n / 2
}

func TestGabrielRemovesWitnessedEdge(t *testing.T) {
	// w sits at the midpoint of uv: the Gabriel disk of uv contains w,
	// so uv must be dropped while uw and wv survive.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0.5)}
	net := buildNet(t, pts, 15)
	g := Build(net, GabrielGraph)
	if g.EdgeSlot(0, 1) >= 0 || g.EdgeSlot(1, 0) >= 0 {
		t.Error("witnessed edge 0-1 kept in Gabriel graph")
	}
	if d := len(neighbors(g, 2)); d != 2 {
		t.Errorf("witness degree = %d, want 2", d)
	}
}

func TestRNGSubsetOfGabriel(t *testing.T) {
	net := deployed(t, topo.ModelIA, 300, 5)
	gg := Build(net, GabrielGraph)
	rng := Build(net, RelativeNeighborhood)
	for u := 0; u < net.N(); u++ {
		ggSet := map[topo.NodeID]bool{}
		for _, v := range neighbors(gg, topo.NodeID(u)) {
			ggSet[v] = true
		}
		for _, v := range neighbors(rng, topo.NodeID(u)) {
			if !ggSet[v] {
				t.Fatalf("RNG edge %d-%d missing from Gabriel graph", u, v)
			}
		}
	}
	if edgeCount(rng) > edgeCount(gg) {
		t.Error("RNG has more edges than GG")
	}
}

func TestPlanarSubgraphOfUDG(t *testing.T) {
	net := deployed(t, topo.ModelFA, 300, 6)
	for _, kind := range []Kind{GabrielGraph, RelativeNeighborhood} {
		g := Build(net, kind)
		for u := 0; u < net.N(); u++ {
			for _, v := range neighbors(g, topo.NodeID(u)) {
				if !net.InRange(topo.NodeID(u), v) {
					t.Fatalf("%v edge %d-%d not a UDG edge", kind, u, v)
				}
			}
		}
	}
}

// The defining property: no two Gabriel edges properly cross.
func TestGabrielPlanarity(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		net := deployed(t, topo.ModelIA, 250, seed)
		g := Build(net, GabrielGraph)
		type edge struct{ u, v topo.NodeID }
		var edges []edge
		for u := 0; u < net.N(); u++ {
			for _, v := range neighbors(g, topo.NodeID(u)) {
				if topo.NodeID(u) < v {
					edges = append(edges, edge{u: topo.NodeID(u), v: v})
				}
			}
		}
		for i := 0; i < len(edges); i++ {
			for j := i + 1; j < len(edges); j++ {
				a, b := edges[i], edges[j]
				if a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v {
					continue
				}
				if geom.SegmentsProperlyCross(
					net.Pos(a.u), net.Pos(a.v), net.Pos(b.u), net.Pos(b.v)) {
					t.Fatalf("seed %d: Gabriel edges %v and %v cross", seed, a, b)
				}
			}
		}
	}
}

// Gabriel and RNG planarization preserve connectivity of the UDG.
func TestPlanarizationPreservesConnectivity(t *testing.T) {
	net := deployed(t, topo.ModelIA, 400, 9)
	labels, _ := topo.Components(net)
	for _, kind := range []Kind{GabrielGraph, RelativeNeighborhood} {
		g := Build(net, kind)
		// BFS over planar edges.
		comp := make([]int, net.N())
		for i := range comp {
			comp[i] = -1
		}
		count := 0
		for s := 0; s < net.N(); s++ {
			if comp[s] != -1 {
				continue
			}
			queue := []topo.NodeID{topo.NodeID(s)}
			comp[s] = count
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range neighbors(g, u) {
					if comp[v] == -1 {
						comp[v] = count
						queue = append(queue, v)
					}
				}
			}
			count++
		}
		for i := 0; i < net.N(); i++ {
			for j := i + 1; j < net.N(); j++ {
				if (labels[i] == labels[j]) != (comp[i] == comp[j]) {
					t.Fatalf("%v changed connectivity between %d and %d", kind, i, j)
				}
			}
		}
	}
}

// TestNeighborsSortedCCW checks that the kept neighbors met walking the
// rotation forward are the sorted rows of the oracle, in their order.
func TestNeighborsSortedCCW(t *testing.T) {
	net := deployed(t, topo.ModelIA, 200, 11)
	g := Build(net, GabrielGraph)
	want := buildSortedRows(net, GabrielGraph)
	for u := 0; u < net.N(); u++ {
		var got []topo.NodeID
		row, keep := net.AdjacencyRow(topo.NodeID(u)), g.keep.Row(topo.NodeID(u))
		for _, j := range net.AdjacencyRotation(topo.NodeID(u)) {
			if keep[j] {
				got = append(got, row[j])
			}
		}
		if !slices.Equal(got, want.adj[u]) {
			t.Fatalf("node %d kept neighbors in rotation order %v; sorted rows %v", u, got, want.adj[u])
		}
	}
}

func TestNextCCW(t *testing.T) {
	// Cross: center 0 with neighbors E(1), N(2), W(3), S(4).
	pts := []geom.Point{
		geom.Pt(50, 50), geom.Pt(60, 50), geom.Pt(50, 60), geom.Pt(40, 50), geom.Pt(50, 40),
	}
	net := buildNet(t, pts, 12)
	g := Build(net, GabrielGraph)
	tests := []struct {
		name string
		from float64
		want topo.NodeID
	}{
		{name: "sweep from east", from: 0, want: 2},
		{name: "sweep from northeast", from: math.Pi / 4, want: 2},
		{name: "sweep from north", from: math.Pi / 2, want: 3},
		{name: "sweep from just past west", from: math.Pi + 0.01, want: 4},
		{name: "sweep from south", from: 3 * math.Pi / 2, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := faceStepFrom(g, 0, topo.NoNode, tt.from, true); got != tt.want {
				t.Errorf("CCW face step at 0 from %v = %v, want %v", tt.from, got, tt.want)
			}
		})
	}
	// Isolated node.
	iso := buildNet(t, []geom.Point{geom.Pt(0, 0), geom.Pt(100, 100)}, 10)
	gi := Build(iso, GabrielGraph)
	if got := faceStepFrom(gi, 0, topo.NoNode, 0, true); got != topo.NoNode {
		t.Errorf("face step on isolated node = %v, want NoNode", got)
	}
}

func TestFaceStep(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(50, 50), geom.Pt(60, 50), geom.Pt(50, 60), geom.Pt(40, 50), geom.Pt(50, 40),
	}
	net := buildNet(t, pts, 12)
	g := Build(net, GabrielGraph)
	// Arriving at center from the east neighbor, the right-hand rule
	// continues to the north neighbor.
	if got := faceStepFrom(g, 0, 1, 0, true); got != 2 {
		t.Errorf("FaceStep(0, from 1) = %v, want 2", got)
	}
	// On entry (no prev), seed with the direction toward a destination
	// to the west: the sweep starts just past west.
	if got := faceStepFrom(g, 0, topo.NoNode, math.Pi, true); got != 4 {
		t.Errorf("FaceStep entry toward west = %v, want 4", got)
	}
}

func TestFaceWalkTerminatesOnTriangle(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)}
	net := buildNet(t, pts, 12)
	g := Build(net, GabrielGraph)
	// Walk the outer face starting from 0 heading to 1; it must cycle.
	u, prev := topo.NodeID(0), topo.NoNode
	seen := 0
	start := u
	for {
		next := faceStepFrom(g, u, prev, 0, true)
		if next == topo.NoNode {
			t.Fatal("walk died")
		}
		prev, u = u, next
		seen++
		if u == start || seen > 10 {
			break
		}
	}
	if seen > 6 {
		t.Errorf("face walk did not cycle promptly: %d steps", seen)
	}
}

func TestKindString(t *testing.T) {
	if GabrielGraph.String() != "GG" || RelativeNeighborhood.String() != "RNG" || Kind(9).String() != "planar(?)" {
		t.Error("Kind.String labels wrong")
	}
}

func TestBuildSkipsDeadNodes(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0)}
	net := buildNet(t, pts, 12)
	net.SetAlive(1, false)
	g := Build(net, GabrielGraph)
	if len(neighbors(g, 1)) != 0 {
		t.Error("dead node has planar edges")
	}
	if g.EdgeSlot(0, 1) >= 0 {
		t.Error("edge to dead node kept")
	}
}
