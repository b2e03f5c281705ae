package safety

import (
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// pinSet is a test EdgeRule pinning an explicit node set.
type pinSet map[topo.NodeID]bool

func (p pinSet) EdgeNodes(net *topo.Network) []bool {
	out := make([]bool, net.N())
	for id := range p {
		out[id] = true
	}
	return out
}

func (p pinSet) Name() string { return "pinset" }

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

// Eastward line 0..4 with only the east end pinned: type-1 stays safe via
// the eastward chain; types 2, 3, 4 cascade unsafe from the west end.
func TestLabelingLine(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(10, 50), geom.Pt(20, 50), geom.Pt(30, 50), geom.Pt(40, 50), geom.Pt(50, 50),
	}
	net := buildNet(t, pts, 12)
	m := Build(net, WithEdgeRule(pinSet{4: true}))

	for u := topo.NodeID(0); u < 4; u++ {
		if !m.Safe(u, geom.Zone1) {
			t.Errorf("node %d should be type-1 safe (eastward chain)", u)
		}
		for _, z := range []geom.ZoneType{geom.Zone2, geom.Zone3, geom.Zone4} {
			if m.Safe(u, z) {
				t.Errorf("node %d should be type-%d unsafe", u, z)
			}
		}
		if got := m.Tuple(u); got != "(1,0,0,0)" {
			t.Errorf("node %d tuple = %s, want (1,0,0,0)", u, got)
		}
	}
	if got := m.Tuple(4); got != "(1,1,1,1)" {
		t.Errorf("pinned node tuple = %s", got)
	}
	if !m.Pinned(4) || m.Pinned(0) {
		t.Error("pin flags wrong")
	}
	if m.AllUnsafe(0) || !m.AnySafe(0) {
		t.Error("AnySafe/AllUnsafe wrong for (1,0,0,0)")
	}
	// The type-2 cascade takes multiple rounds (0 flips, then 1, ...).
	if m.Cost.Rounds < 2 {
		t.Errorf("Rounds = %d, want >= 2 for a cascading line", m.Cost.Rounds)
	}
	if m.Cost.Messages == 0 {
		t.Error("no construction messages recorded")
	}
}

// hasSafeZoneNeighbor evaluates the Definition 1 condition at u for zone
// z one zone at a time, as the labeling did before Model.lower folded
// the four zones into one pass: is there any type-z safe neighbor
// inside Q_z(u)?
func hasSafeZoneNeighbor(m *Model, u topo.NodeID, z geom.ZoneType) bool {
	pu := m.Net.Pos(u)
	for _, v := range m.Net.Neighbors(u) {
		if geom.InForwardingZone(pu, z, m.Net.Pos(v)) && m.Safe(v, z) {
			return true
		}
	}
	return false
}

// The fixpoint property (Definition 1): every unpinned safe node has a
// safe same-type neighbor in its zone; every unsafe node has none.
func TestLabelingFixpoint(t *testing.T) {
	for _, model := range []topo.DeployModel{topo.ModelIA, topo.ModelFA} {
		net := deployed(t, model, 450, 17)
		m := Build(net)
		for i := range net.Nodes {
			u := topo.NodeID(i)
			for _, z := range geom.AllZones {
				has := hasSafeZoneNeighbor(m, u, z)
				if m.Pinned(u) {
					if !m.Safe(u, z) {
						t.Fatalf("%v: pinned node %d unsafe", model, u)
					}
					continue
				}
				if m.Safe(u, z) && !has {
					t.Fatalf("%v: node %d type-%d safe without safe zone neighbor", model, u, z)
				}
				if !m.Safe(u, z) && has {
					t.Fatalf("%v: node %d type-%d unsafe despite safe zone neighbor", model, u, z)
				}
			}
		}
	}
}

// Theorem 1 flavor: starting from any type-z safe node, greedy type-z
// forwarding restricted to safe nodes never gets stuck before reaching a
// pinned (edge) node.
func TestSafeGreedyNeverStuck(t *testing.T) {
	net := deployed(t, topo.ModelFA, 500, 23)
	m := Build(net)
	for i := range net.Nodes {
		u := topo.NodeID(i)
		for _, z := range geom.AllZones {
			if !m.Safe(u, z) || m.Pinned(u) {
				continue
			}
			cur := u
			for steps := 0; steps < net.N(); steps++ {
				if m.Pinned(cur) {
					break
				}
				next := topo.NoNode
				pc := net.Pos(cur)
				for _, v := range net.Neighbors(cur) {
					if geom.InForwardingZone(pc, z, net.Pos(v)) && m.Safe(v, z) {
						next = v
						break
					}
				}
				if next == topo.NoNode {
					t.Fatalf("type-%d safe chain stuck at node %d (started %d)", z, cur, u)
				}
				cur = next
			}
		}
	}
}

func TestSyncAsyncEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		net := deployed(t, topo.ModelFA, 400, seed)
		sync := Build(net)
		for _, asyncSeed := range []uint64{9, 77} {
			async := BuildAsync(net, asyncSeed)
			for i := range net.Nodes {
				u := topo.NodeID(i)
				for _, z := range geom.AllZones {
					if sync.Safe(u, z) != async.Safe(u, z) {
						t.Fatalf("seed %d/%d: node %d type-%d differs sync=%v",
							seed, asyncSeed, u, z, sync.Safe(u, z))
					}
				}
				if sync.U1(u, geom.Zone1) != async.U1(u, geom.Zone1) ||
					sync.U2(u, geom.Zone1) != async.U2(u, geom.Zone1) {
					t.Fatalf("seed %d/%d: node %d shape endpoints differ", seed, asyncSeed, u)
				}
			}
		}
	}
}

// NE chain (0,0)->(5,5)->(10,10), nothing pinned: all three are type-1
// unsafe; u(1) and u(2) propagate the chain tip back to the origin.
func TestShapeChain(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(10, 10)}
	net := buildNet(t, pts, 8)
	m := Build(net, WithEdgeRule(pinSet{}))

	for u := topo.NodeID(0); u <= 2; u++ {
		if m.Safe(u, geom.Zone1) {
			t.Fatalf("node %d should be type-1 unsafe", u)
		}
	}
	// Tip: empty Q1 -> self.
	if m.U1(2, geom.Zone1) != 2 || m.U2(2, geom.Zone1) != 2 {
		t.Errorf("tip u(1)/u(2) = %v/%v, want 2/2", m.U1(2, geom.Zone1), m.U2(2, geom.Zone1))
	}
	// Propagated to the origin.
	if m.U1(0, geom.Zone1) != 2 || m.U2(0, geom.Zone1) != 2 {
		t.Errorf("origin u(1)/u(2) = %v/%v, want 2/2", m.U1(0, geom.Zone1), m.U2(0, geom.Zone1))
	}
	r, ok := m.Shape(0, geom.Zone1)
	if !ok {
		t.Fatal("no shape at origin")
	}
	want := geom.FromCorners(geom.Pt(0, 0), geom.Pt(10, 10))
	if r != want {
		t.Errorf("E1(0) = %v, want %v", r, want)
	}
	far, ok := m.FarCorner(0, geom.Zone1)
	if !ok || far != geom.Pt(10, 10) {
		t.Errorf("FarCorner = %v/%v, want (10,10)", far, ok)
	}
	// Safe node has no shape.
	if _, ok := m.Shape(0, geom.Zone3); ok {
		// zone 3 of node 0 is empty -> unsafe with self shape; use a
		// pinned-safe construction instead for the negative case below.
		_ = ok
	}
}

// Forked NE region: two branches from u; the CCW-first branch hugs east,
// the CCW-last hugs north; E combines x of u(1) with y of u(2).
func TestShapeFork(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0),  // 0 = u
		geom.Pt(7, 2),  // 1: first hit scanning CCW from +X
		geom.Pt(14, 4), // 2: east tip (u1)
		geom.Pt(2, 7),  // 3: last hit
		geom.Pt(4, 14), // 4: north tip (u2)
	}
	net := buildNet(t, pts, 8)
	m := Build(net, WithEdgeRule(pinSet{}))
	for u := topo.NodeID(0); u < 5; u++ {
		if m.Safe(u, geom.Zone1) {
			t.Fatalf("node %d should be type-1 unsafe", u)
		}
	}
	if got := m.U1(0, geom.Zone1); got != 2 {
		t.Errorf("u(1) = %v, want 2 (east tip)", got)
	}
	if got := m.U2(0, geom.Zone1); got != 4 {
		t.Errorf("u(2) = %v, want 4 (north tip)", got)
	}
	r, _ := m.Shape(0, geom.Zone1)
	want := geom.FromCorners(geom.Pt(0, 0), geom.Pt(14, 14))
	if r != want {
		t.Errorf("E1(0) = %v, want %v", r, want)
	}
}

// u(1) and u(2) always belong to the greedy region G_z(u).
func TestShapeEndpointsInGreedyRegion(t *testing.T) {
	net := deployed(t, topo.ModelFA, 450, 31)
	m := Build(net)
	checked := 0
	for i := range net.Nodes {
		u := topo.NodeID(i)
		for _, z := range geom.AllZones {
			if m.Safe(u, z) {
				continue
			}
			u1, u2 := m.U1(u, z), m.U2(u, z)
			if u1 == topo.NoNode || u2 == topo.NoNode {
				t.Fatalf("unsafe node %d type-%d has unresolved endpoints", u, z)
			}
			region := m.GreedyRegion(u, z)
			inRegion := func(x topo.NodeID) bool {
				for _, v := range region {
					if v == x {
						return true
					}
				}
				return false
			}
			if !inRegion(u1) || !inRegion(u2) {
				t.Fatalf("node %d type-%d: endpoints %d/%d outside greedy region", u, z, u1, u2)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no unsafe nodes in this deployment; try another seed")
	}
}

func TestSafeToward(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(10, 50), geom.Pt(20, 50), geom.Pt(30, 50), geom.Pt(40, 50), geom.Pt(50, 50),
	}
	net := buildNet(t, pts, 12)
	m := Build(net, WithEdgeRule(pinSet{4: true}))
	// Node 1 toward an eastern destination: type-1 safe.
	if !m.SafeToward(1, geom.Pt(60, 55)) {
		t.Error("node 1 should be safe toward the east")
	}
	// Node 1 toward a western destination: type-2 unsafe.
	if m.SafeToward(1, geom.Pt(0, 55)) {
		t.Error("node 1 should be unsafe toward the west")
	}
	// A node at the destination itself is always safe toward it.
	if !m.SafeToward(2, net.Pos(2)) {
		t.Error("node at destination should be safe toward it")
	}
}

func TestUnsafeAreaOf(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(10, 10)}
	net := buildNet(t, pts, 8)
	m := Build(net, WithEdgeRule(pinSet{}))
	area := m.UnsafeAreaOf(0, geom.Zone1)
	if len(area) != 3 {
		t.Errorf("unsafe area = %v, want all 3 nodes", area)
	}
	// Safe node yields nil.
	pts2 := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0)}
	net2 := buildNet(t, pts2, 8)
	m2 := Build(net2, WithEdgeRule(pinSet{0: true, 1: true}))
	if got := m2.UnsafeAreaOf(0, geom.Zone1); got != nil {
		t.Errorf("pinned-safe node area = %v, want nil", got)
	}
}

// UnsafeAreaOf returns every node of the connected type-z unsafe area
// containing u (BFS over unsafe nodes), or nil if u is type-z safe.
// Used by analysis, tests and the visualizer; routing never needs it.
func (m *Model) UnsafeAreaOf(u topo.NodeID, z geom.ZoneType) []topo.NodeID {
	if m.Safe(u, z) {
		return nil
	}
	seen := map[topo.NodeID]bool{u: true}
	queue := []topo.NodeID{u}
	var out []topo.NodeID
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		out = append(out, x)
		for _, v := range m.Net.Neighbors(x) {
			if !seen[v] && m.Unsafe(v, z) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// GreedyRegion returns G_z(u): every type-z unsafe node reachable from u
// through type-z forwarding steps over unsafe nodes (including u). Used
// by tests to validate the u(1)/u(2) extremal claims.
func (m *Model) GreedyRegion(u topo.NodeID, z geom.ZoneType) []topo.NodeID {
	if m.Safe(u, z) {
		return nil
	}
	seen := map[topo.NodeID]bool{u: true}
	queue := []topo.NodeID{u}
	var out []topo.NodeID
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		out = append(out, x)
		px := m.Net.Pos(x)
		for _, v := range m.Net.Neighbors(x) {
			if seen[v] || m.Safe(v, z) {
				continue
			}
			if geom.InForwardingZone(px, z, m.Net.Pos(v)) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}
