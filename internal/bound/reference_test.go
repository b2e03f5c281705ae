package bound

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// refSweepCW is the reference CW sweep: the first alive neighbor of u
// (other than exclude) reached rotating clockwise from `from`.
func refSweepCW(net *topo.Network, u topo.NodeID, from float64, exclude topo.NodeID) topo.NodeID {
	row := net.AdjacencyRow(u)
	angs := net.AdjacencyAngles(u)
	best := topo.NoNode
	bestDelta := geom.TwoPi + 1
	for j, v := range row {
		if v == exclude || !net.Alive(v) {
			continue
		}
		delta := geom.CWDelta(from, angs[j])
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta {
			bestDelta, best = delta, v
		}
	}
	return best
}

// refTrace is the reference BOUNDHOLE walk: one CW sweep per step from
// the back-edge bearing, visited directed edges in a map. It returns the
// closed cycle (nil when the walk repeats an edge, runs over maxLen or
// out of budget) and the nodes the walk visited.
func refTrace(net *topo.Network, maxLen int, t0 topo.NodeID, iv StuckInterval) (cycle, touched []topo.NodeID) {
	buf := []topo.NodeID{t0}
	first := refSweepCW(net, t0, iv.MidDirection(), topo.NoNode)
	if first == topo.NoNode {
		return nil, buf
	}
	walked := map[[2]topo.NodeID]bool{{t0, first}: true}
	prev, cur := t0, first
	for step := 0; step < 4*net.N(); step++ {
		if cur == t0 {
			return buf, buf
		}
		buf = append(buf, cur)
		if len(buf) > maxLen {
			return nil, buf
		}
		from, _ := net.EdgeBearing(cur, prev)
		next := refSweepCW(net, cur, from, prev)
		if next == topo.NoNode {
			next = prev
		}
		if walked[[2]topo.NodeID{cur, next}] {
			return nil, buf
		}
		walked[[2]topo.NodeID{cur, next}] = true
		prev, cur = cur, next
	}
	return nil, buf
}

// refRecs runs TENT and the reference walk from every stuck interval of
// every alive node.
func refRecs(net *topo.Network) []nodeRec {
	recs := make([]nodeRec, net.N())
	maxLen := boundaryLenCap(net)
	for i := range recs {
		u := topo.NodeID(i)
		if !net.Alive(u) {
			continue
		}
		res := Tent(net, u)
		if !res.Stuck() {
			continue
		}
		recs[i] = nodeRec{tent: res, traces: make([]traceRec, len(res.Intervals))}
		for k, iv := range res.Intervals {
			cycle, touched := refTrace(net, maxLen, u, iv)
			recs[i].traces[k] = traceRec{cycle: cycle, touched: touched}
		}
	}
	return recs
}

// requireReference checks b against the reference on its network: every
// cached walk record (cycle and touched set), then the hole set, the
// node index and the message count assembled from the reference walks.
func requireReference(t *testing.T, label string, b *Boundaries) {
	t.Helper()
	net := b.net
	want := refRecs(net)
	for i := range want {
		got, w := b.recs[i], want[i]
		if !slices.Equal(got.tent.Intervals, w.tent.Intervals) || len(got.traces) != len(w.traces) {
			t.Fatalf("%s: node %d TENT %v (%d walks); reference %v (%d walks)",
				label, i, got.tent.Intervals, len(got.traces), w.tent.Intervals, len(w.traces))
		}
		for k := range w.traces {
			g, r := got.traces[k], w.traces[k]
			if !slices.Equal(g.cycle, r.cycle) || (g.cycle == nil) != (r.cycle == nil) || !slices.Equal(g.touched, r.touched) {
				t.Fatalf("%s: walk %d/%d cycle %v touched %v; reference cycle %v touched %v",
					label, i, k, g.cycle, g.touched, r.cycle, r.touched)
			}
		}
	}

	kept, _ := refAssemble(want)
	messages := 0
	for i := range want {
		for _, tr := range want[i].traces {
			if len(tr.cycle) >= 3 {
				messages += len(tr.cycle)
			}
		}
	}
	if b.MessageCount != messages {
		t.Fatalf("%s: MessageCount %d; reference %d", label, b.MessageCount, messages)
	}
	if len(b.Holes) != len(kept) {
		t.Fatalf("%s: %d holes; reference %d", label, len(b.Holes), len(kept))
	}
	holesAt := make(map[topo.NodeID][]int)
	for i, h := range b.Holes {
		if h.ID != i || !slices.Equal(h.Cycle, kept[i]) {
			t.Fatalf("%s: hole %d (id %d) cycle %v; reference %v", label, i, h.ID, h.Cycle, kept[i])
		}
		bb := geom.FromCorners(net.Pos(kept[i][0]), net.Pos(kept[i][0]))
		for _, v := range kept[i] {
			p := net.Pos(v)
			bb = bb.Union(geom.FromCorners(p, p))
			holesAt[v] = append(holesAt[v], i)
		}
		if h.BBox != bb {
			t.Fatalf("%s: hole %d bbox %v; reference %v", label, i, h.BBox, bb)
		}
	}
	for u := range net.Nodes {
		var ids []int
		for _, h := range b.HolesAt(topo.NodeID(u)) {
			ids = append(ids, h.ID)
		}
		if !slices.Equal(ids, holesAt[topo.NodeID(u)]) {
			t.Fatalf("%s: HolesAt(%d) = %v; reference %v", label, u, ids, holesAt[topo.NodeID(u)])
		}
	}
}

// TestBoundariesMatchReference pins FindHoles and all three repair
// kinds to the sweep-per-step reference walk on IA, FA and OB
// deployments: fresh, then after every step of an interleaved
// fail/revive/move sequence. The repairs are thus checked against an
// independent walk, not only against FindHoles.
func TestBoundariesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		model topo.DeployModel
		n     int
		seed  uint64
	}{
		{topo.ModelIA, 350, 3},
		{topo.ModelFA, 400, 11},
		{topo.ModelOB, 300, 5},
	} {
		t.Run(tc.model.String(), func(t *testing.T) {
			dep, err := topo.Deploy(topo.DefaultDeployConfig(tc.model, tc.n, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			net := dep.Net
			b := FindHoles(net)
			requireReference(t, "fresh", b)

			rng := rand.New(rand.NewPCG(tc.seed, 0xb0d4))
			var dead []topo.NodeID
			for step := 0; step < 12; step++ {
				switch step % 3 {
				case 0: // fail a few alive nodes
					var changed []topo.NodeID
					for len(changed) < 3 {
						u := topo.NodeID(rng.IntN(net.N()))
						if net.Alive(u) {
							net.SetAlive(u, false)
							changed = append(changed, u)
						}
					}
					dead = append(dead, changed...)
					b.Repair(changed)
				case 1: // revive some of the dead
					k := 1 + rng.IntN(len(dead))
					changed := dead[:k]
					for _, u := range changed {
						net.SetAlive(u, true)
					}
					b.Repair(changed)
					dead = slices.Clone(dead[k:])
				default: // drift a batch, dead nodes included
					moves := make([]topo.Move, 6)
					for i, u := range rng.Perm(net.N())[:len(moves)] {
						p := net.Pos(topo.NodeID(u))
						x := min(max(p.X+rng.NormFloat64()*6, net.Field.Min.X), net.Field.Max.X)
						y := min(max(p.Y+rng.NormFloat64()*6, net.Field.Min.Y), net.Field.Max.Y)
						moves[i] = topo.Move{Node: topo.NodeID(u), X: x, Y: y}
					}
					dirty, err := net.SetPositions(moves)
					if err != nil {
						t.Fatal(err)
					}
					b.RepairMoved(dirty)
				}
				requireReference(t, []string{"fail", "revive", "move"}[step%3], b)
			}
		})
	}
}
