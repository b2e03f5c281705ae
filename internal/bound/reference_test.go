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
// closed cycle, nil when the walk repeats an edge, runs over maxLen or
// out of budget.
func refTrace(net *topo.Network, maxLen int, t0 topo.NodeID, iv StuckInterval) []topo.NodeID {
	cycle := []topo.NodeID{t0}
	first := refSweepCW(net, t0, iv.MidDirection(), topo.NoNode)
	if first == topo.NoNode {
		return nil
	}
	walked := map[[2]topo.NodeID]bool{{t0, first}: true}
	prev, cur := t0, first
	for step := 0; step < 4*net.N(); step++ {
		if cur == t0 {
			return cycle
		}
		cycle = append(cycle, cur)
		if len(cycle) > maxLen {
			return nil
		}
		from, _ := net.EdgeBearing(cur, prev)
		next := refSweepCW(net, cur, from, prev)
		if next == topo.NoNode {
			next = prev
		}
		if walked[[2]topo.NodeID{cur, next}] {
			return nil
		}
		walked[[2]topo.NodeID{cur, next}] = true
		prev, cur = cur, next
	}
	return nil
}

// refNode is the reference analysis of one node: its TENT result and
// the reference walk's cycle per stuck interval (nil when dropped).
type refNode struct {
	tent   TentResult
	cycles [][]topo.NodeID
}

// refRecs runs TENT and the reference walk from every stuck interval of
// every alive node.
func refRecs(net *topo.Network) []refNode {
	recs := make([]refNode, net.N())
	maxLen := boundaryLenCap(net)
	for i := range recs {
		u := topo.NodeID(i)
		if !net.Alive(u) {
			continue
		}
		recs[i].tent = Tent(net, u)
		for _, iv := range recs[i].tent.Intervals {
			recs[i].cycles = append(recs[i].cycles, refTrace(net, maxLen, u, iv))
		}
	}
	return recs
}

// derivedCycle is b's outcome for stuck interval k of node u: the cycle
// its orbit labels give the walk, nil when the walk is dropped.
func derivedCycle(b *Boundaries, u topo.NodeID, k int) []topo.NodeID {
	col := b.recs[u].first[k]
	if col < 0 {
		return nil
	}
	s0 := b.off[u] + col
	n := b.walkLen(u, s0)
	if n == 0 {
		return nil
	}
	return b.appendCycle(nil, u, s0, n)
}

// offCycle counts the live darts that lie off every orbit of b's
// successor permutation — zero unless a sweep tie merged two darts —
// and the walks that start on one of them.
func offCycle(b *Boundaries) (darts, walks int) {
	for u := range b.net.Nodes {
		for j, v := range b.net.AdjacencyRow(topo.NodeID(u)) {
			if b.net.Alive(topo.NodeID(u)) && b.net.Alive(v) && b.at[b.off[u]+int32(j)] < 0 {
				darts++
			}
		}
		for _, col := range b.recs[u].first {
			if col >= 0 && b.at[b.off[u]+col] < 0 {
				walks++
			}
		}
	}
	return darts, walks
}

// requireReference checks b against the reference on its network: the
// TENT result of every node and the derived outcome of every stuck
// interval's walk, then the hole set, the node index and the message
// count assembled from the reference walks.
func requireReference(t *testing.T, label string, b *Boundaries) {
	t.Helper()
	net := b.net
	want := refRecs(net)
	for i := range want {
		got, w := b.recs[i], want[i]
		if !slices.Equal(got.tent.Intervals, w.tent.Intervals) || len(got.first) != len(w.cycles) {
			t.Fatalf("%s: node %d TENT %v (%d walks); reference %v (%d walks)",
				label, i, got.tent.Intervals, len(got.first), w.tent.Intervals, len(w.cycles))
		}
		for k, r := range w.cycles {
			if g := derivedCycle(b, topo.NodeID(i), k); !slices.Equal(g, r) || (g == nil) != (r == nil) {
				t.Fatalf("%s: walk %d/%d cycle %v; reference %v", label, i, k, g, r)
			}
		}
	}

	kept, _ := refAssemble(want)
	messages := 0
	for i := range want {
		for _, c := range want[i].cycles {
			if len(c) >= 3 {
				messages += len(c)
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
// fail/revive/move sequence, and through moves that clamp nodes onto a
// field edge (edge-ties). The repairs are thus checked against an
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
	// Sweep ties: moves push nodes of the left strip onto the field
	// edge, where neighbors on the edge line share an exact bearing from
	// each other. The tie rule then sends two back-edges to one
	// successor, so σ stops being a bijection and walks start off every
	// σ-cycle; each step is still checked against the reference.
	t.Run("edge-ties", func(t *testing.T) {
		dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelOB, 300, 5))
		if err != nil {
			t.Fatal(err)
		}
		net := dep.Net
		b := FindHoles(net)
		var strip []topo.NodeID
		for u := range net.Nodes {
			if net.Pos(topo.NodeID(u)).X < net.Field.Min.X+30 {
				strip = append(strip, topo.NodeID(u))
			}
		}
		var darts, walks int
		for len(strip) > 0 {
			k := min(4, len(strip))
			moves := make([]topo.Move, k)
			for i, u := range strip[:k] {
				moves[i] = topo.Move{Node: u, X: max(net.Pos(u).X-40, net.Field.Min.X), Y: net.Pos(u).Y}
			}
			strip = strip[k:]
			dirty, err := net.SetPositions(moves)
			if err != nil {
				t.Fatal(err)
			}
			b.RepairMoved(dirty)
			requireReference(t, "edge move", b)
			d, w := offCycle(b)
			darts, walks = max(darts, d), max(walks, w)
		}
		if darts == 0 || walks == 0 {
			t.Fatalf("scenario puts %d darts and %d walk starts off the σ-cycles; both must be positive, pick a new seed", darts, walks)
		}
	})
}
