package safety

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

func TestConvexHullEdge(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100), geom.Pt(0, 100), // hull
		geom.Pt(50, 50), // interior
	}
	net := buildNet(t, pts, 200)
	edges := ConvexHullEdge{}.EdgeNodes(net)
	for i := 0; i < 4; i++ {
		if !edges[i] {
			t.Errorf("hull corner %d not marked", i)
		}
	}
	if edges[4] {
		t.Error("interior node marked as edge")
	}
	// A dead hull node is replaced by the remaining hull.
	net.SetAlive(0, false)
	edges = ConvexHullEdge{}.EdgeNodes(net)
	if edges[0] {
		t.Error("dead node marked as edge")
	}
}

func TestBorderMarginEdge(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(5, 100),   // within 20 of the west border
		geom.Pt(100, 195), // within 20 of the north border
		geom.Pt(100, 100), // deep interior
	}
	net := buildNet(t, pts, 30)
	edges := BorderMarginEdge{Margin: 20}.EdgeNodes(net)
	if !edges[0] || !edges[1] {
		t.Error("border nodes not marked")
	}
	if edges[2] {
		t.Error("interior node marked")
	}
	// Margin covering the whole field marks everything.
	all := BorderMarginEdge{Margin: 150}.EdgeNodes(net)
	for i, b := range all {
		if !b {
			t.Errorf("node %d unmarked under full-field margin", i)
		}
	}
}

func TestUnionEdgeAndNames(t *testing.T) {
	pts := []geom.Point{geom.Pt(5, 100), geom.Pt(100, 100), geom.Pt(195, 100)}
	net := buildNet(t, pts, 300)
	u := UnionEdge{ConvexHullEdge{}, BorderMarginEdge{Margin: 10}}
	edges := u.EdgeNodes(net)
	// 0 and 2 are both hull and border; 1 is neither (collinear interior).
	if !edges[0] || !edges[2] {
		t.Error("union missed obvious edge nodes")
	}
	if edges[1] {
		t.Error("union marked interior collinear node")
	}
	if got := u.Name(); got != "union(hull+margin)" {
		t.Errorf("union name = %q", got)
	}
	if (ConvexHullEdge{}).Name() != "hull" || (BorderMarginEdge{}).Name() != "margin" {
		t.Error("rule names wrong")
	}
	if DefaultEdgeRule().Name() != "union(hull+margin)" {
		t.Errorf("default rule = %q", DefaultEdgeRule().Name())
	}
}

func TestIncrementalFailureEqualsRebuild(t *testing.T) {
	for seed := uint64(2); seed <= 4; seed++ {
		net := deployed(t, topo.ModelFA, 400, seed)
		m := Build(net)

		// Fail a scattered batch of nodes.
		failed := []topo.NodeID{11, 47, 160, 233, 391}
		for _, f := range failed {
			net.SetAlive(f, false)
		}
		m.OnNodeFailure(failed...)

		fresh := Build(net)
		for i := range net.Nodes {
			u := topo.NodeID(i)
			for _, z := range geom.AllZones {
				if m.Safe(u, z) != fresh.Safe(u, z) {
					t.Fatalf("seed %d: node %d type-%d: incremental=%v fresh=%v",
						seed, u, z, m.Safe(u, z), fresh.Safe(u, z))
				}
				if m.U1(u, z) != fresh.U1(u, z) || m.U2(u, z) != fresh.U2(u, z) {
					t.Fatalf("seed %d: node %d type-%d shape endpoints differ", seed, u, z)
				}
			}
		}
		// Restore for the next iteration's deploy (fresh network anyway).
	}
}

func TestIncrementalCascade(t *testing.T) {
	// Line 0..4, pin east end. Killing node 3 severs the type-1 chain:
	// nodes 0..2 must flip type-1 unsafe.
	pts := []geom.Point{
		geom.Pt(10, 50), geom.Pt(20, 50), geom.Pt(30, 50), geom.Pt(40, 50), geom.Pt(50, 50),
	}
	net := buildNet(t, pts, 12)
	m := Build(net, WithEdgeRule(pinSet{4: true}))
	if !m.Safe(0, geom.Zone1) {
		t.Fatal("precondition: node 0 type-1 safe")
	}
	net.SetAlive(3, false)
	m.OnNodeFailure(3)
	for u := topo.NodeID(0); u <= 2; u++ {
		if m.Safe(u, geom.Zone1) {
			t.Errorf("node %d still type-1 safe after chain cut", u)
		}
	}
	if m.AnySafe(3) {
		t.Error("dead node reports safe status")
	}
	if got := m.Tuple(3); got != "(0,0,0,0)" {
		t.Errorf("dead node tuple = %s", got)
	}
}

// TestRepinMatchesEdgeNodes is the differential test of the kept hull
// (Model.repin): through random fail, revive and move batches — moves
// drawn to land inside, on and outside the hull, on a coarse lattice so
// that collinear and coincident nodes come up, and clamped onto the
// field border — the repaired pins of every node-pinning rule equal the
// rule evaluated in full, and the repaired model equals a fresh build.
// Both the kept-hull path and the recompute are taken; the margin rule,
// which never reads the hull, only re-pins the changed nodes.
func TestRepinMatchesEdgeNodes(t *testing.T) {
	rules := []EdgeRule{DefaultEdgeRule(), ConvexHullEdge{}, BorderMarginEdge{Margin: 20}}
	for _, rule := range rules {
		for _, model := range []topo.DeployModel{topo.ModelIA, topo.ModelFA} {
			t.Run(rule.Name()+"/"+model.String(), func(t *testing.T) {
				net := deployed(t, model, 200, 4)
				m := Build(net, WithEdgeRule(rule))
				rng := rand.New(rand.NewPCG(uint64(len(rule.Name())), uint64(model)))
				var kept, recomputed int
				for step := 0; step < 120; step++ {
					var changed []topo.NodeID
					move := rng.IntN(3) == 0
					for k := 0; k < 1+rng.IntN(4); k++ {
						u := topo.NodeID(rng.IntN(net.N()))
						if slices.Contains(changed, u) {
							continue
						}
						changed = append(changed, u)
						if !move {
							net.SetAlive(u, !net.Alive(u))
						}
					}
					var dirty []topo.NodeID
					if move {
						moves := make([]topo.Move, len(changed))
						for k, u := range changed {
							f := net.Field
							x := f.Min.X + float64(rng.IntN(11))/10*f.Width()
							y := f.Min.Y + float64(rng.IntN(11))/10*f.Height()
							if rng.IntN(2) == 0 { // a short drift, clamped
								p := net.Pos(u)
								x = min(max(p.X+8*rng.NormFloat64(), f.Min.X), f.Max.X)
								y = min(max(p.Y+8*rng.NormFloat64(), f.Min.Y), f.Max.Y)
							}
							moves[k] = topo.Move{Node: u, X: x, Y: y}
						}
						var err error
						if dirty, err = net.SetPositions(moves); err != nil {
							t.Fatal(err)
						}
						changed = dirty
					}
					if _, readsHull := rule.(nodeRule).byNode(); !readsHull || m.keepsHull(changed) {
						kept++
					} else {
						recomputed++
					}
					if move {
						m.RepairMoved(dirty)
					} else {
						m.Repair(changed...)
					}
					if want := rule.EdgeNodes(net); !slices.Equal(m.edge, want) {
						t.Fatalf("step %d: pins differ from the rule evaluated in full", step)
					}
					requireModelEqual(t, step, net, m, Build(net, WithEdgeRule(rule)))
				}
				if _, readsHull := rule.(nodeRule).byNode(); kept == 0 || readsHull && recomputed == 0 {
					t.Fatalf("re-pinned the changed nodes %d times, recomputed every pin %d times; want both", kept, recomputed)
				}
			})
		}
	}
}

// TestRepinOtherRulesInFull checks that a rule that does not pin by
// node, alone or in a union, is evaluated in full on every repair, with
// no hull kept: pinSet pins its nodes dead or alive, which a per-node
// re-pin would not.
func TestRepinOtherRulesInFull(t *testing.T) {
	for _, rule := range []EdgeRule{pinSet{3: true, 40: true}, UnionEdge{ConvexHullEdge{}, pinSet{3: true}}} {
		net := deployed(t, topo.ModelFA, 200, 4)
		m := Build(net, WithEdgeRule(rule))
		for step, u := range []topo.NodeID{3, 17, 40, 17, 3} {
			net.SetAlive(u, !net.Alive(u))
			m.Repair(u)
			if want := rule.EdgeNodes(net); !slices.Equal(m.edge, want) || m.hull != nil {
				t.Fatalf("%s step %d: pins differ from the rule evaluated in full, or a hull was kept", rule.Name(), step)
			}
		}
	}
}
