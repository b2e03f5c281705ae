package bound

import (
	"cmp"
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

// refSweepSlot is the row-scan CW sweep, the oracle of the rotation
// walks: the CSR slot of the edge from u to the neighbor first reached
// rotating clockwise from the angle `from`, skipping `exclude` (pass
// topo.NoNode to allow all neighbors), or -1 when no neighbor
// qualifies. Deltas under 1e-12 count as a full turn; among neighbors
// sharing a delta the first in row order wins.
func refSweepSlot(net *topo.Network, u topo.NodeID, from float64, exclude topo.NodeID) int32 {
	angs := net.AdjacencyAngles(u)
	checkAlive := net.DeadCount() > 0
	bestDelta := geom.TwoPi + 1
	bestJ := -1
	for j, v := range net.AdjacencyRow(u) {
		if v == exclude || (checkAlive && !net.Alive(v)) {
			continue
		}
		delta := geom.CWDelta(from, angs[j])
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta {
			bestDelta, bestJ = delta, j
		}
	}
	if bestJ < 0 {
		return -1
	}
	return int32(net.AdjOffset(u) + bestJ)
}

// refTent is the sort-based TENT rule, the oracle of Tent: the alive
// neighbors deduplicated by direction pairwise in row order (the nearest
// of a direction representing it), then sorted by angle.
func refTent(net *topo.Network, u topo.NodeID) TentResult {
	res := TentResult{Node: u}
	up := net.Pos(u)

	// Collect one representative neighbor per distinct direction. When
	// several neighbors share a direction the nearest one dominates the
	// TENT test (its bisector half-plane covers the others'), so keep it.
	type dirNbr struct {
		angle float64
		node  topo.NodeID
		dist2 float64
	}
	var buf [64]dirNbr
	dirs := buf[:0]
	row := net.AdjacencyRow(u)
	angs := net.AdjacencyAngles(u)
	checkAlive := net.DeadCount() > 0
	for j, v := range row {
		if checkAlive && !net.Alive(v) {
			continue
		}
		a := angs[j]
		d2 := geom.Dist2(up, net.Pos(v))
		merged := false
		for i := range dirs {
			if sameAngle(dirs[i].angle, a) {
				if d2 < dirs[i].dist2 {
					dirs[i] = dirNbr{angle: a, node: v, dist2: d2}
				}
				merged = true
				break
			}
		}
		if !merged {
			dirs = append(dirs, dirNbr{angle: a, node: v, dist2: d2})
		}
	}

	switch len(dirs) {
	case 0:
		res.Intervals = []StuckInterval{{Lo: 0, Hi: geom.TwoPi - 1e-9}}
		return res
	case 1:
		// Only the exact direction of the sole neighbor line is safe.
		a := dirs[0].angle
		res.Intervals = []StuckInterval{{Lo: geom.NormAngle(a + 1e-6), Hi: geom.NormAngle(a - 1e-6)}}
		return res
	}

	slices.SortFunc(dirs, func(a, b dirNbr) int { return cmp.Compare(a.angle, b.angle) })
	for i := range dirs {
		d1 := dirs[i]
		d2 := dirs[(i+1)%len(dirs)]
		if geom.CCWDelta(d1.angle, d2.angle) < 1e-9 {
			continue // no directions strictly between
		}
		if stuckBetween(net, up, d1.node, d2.node) {
			res.Intervals = append(res.Intervals, StuckInterval{Lo: d1.angle, Hi: d2.angle})
		}
	}
	return res
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
		j, _ := slices.BinarySearch(net.AdjacencyRow(cur), prev)
		from := net.AdjacencyAngles(cur)[j]
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
		recs[i].tent = refTent(net, u)
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
	s0 := int32(b.net.AdjOffset(u)) + col
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
			if b.net.Alive(topo.NodeID(u)) && b.net.Alive(v) && b.at[b.net.AdjOffset(topo.NodeID(u))+j] < 0 {
				darts++
			}
		}
		for _, col := range b.recs[u].first {
			if col >= 0 && b.at[int32(b.net.AdjOffset(topo.NodeID(u)))+col] < 0 {
				walks++
			}
		}
	}
	return darts, walks
}

// requireReference checks b against the reference on its network: the
// rotation walks against their sort-based oracles, the TENT result of
// every node and the derived outcome of every stuck interval's walk,
// then the hole set, the node index and the message count assembled
// from the reference walks.
func requireReference(t *testing.T, label string, b *Boundaries) {
	t.Helper()
	requireSortOracle(t, label, b)
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

// requireSortOracle checks the rotation walks of b against the sort-
// based oracles on its network: every slot of the successor table
// (refSweepSlot from the back-edge's bearing, excluding it, bouncing at
// a dead end), and per alive node the TENT intervals (refTent) and the
// first-hop slot of every stuck interval (refSweepSlot from its middle).
func requireSortOracle(t *testing.T, label string, b *Boundaries) {
	t.Helper()
	net := b.net
	for i := range net.Nodes {
		u := topo.NodeID(i)
		off := int32(net.AdjOffset(u))
		angs := net.AdjacencyAngles(u)
		for j, v := range net.AdjacencyRow(u) {
			want := refSweepSlot(net, u, angs[j], v)
			if want < 0 {
				want = off + int32(j)
			}
			if got := off + int32(j) + b.out.At[off+int32(j)]; got != want {
				t.Fatalf("%s: successor of back-edge %d->%d is slot %d; oracle %d", label, u, v, got, want)
			}
		}
		if !net.Alive(u) {
			continue
		}
		tent := refTent(net, u)
		if got := b.recs[i].tent.Intervals; !slices.Equal(got, tent.Intervals) {
			t.Fatalf("%s: node %d TENT %v; oracle %v", label, u, got, tent.Intervals)
		}
		for k, iv := range tent.Intervals {
			got, want := b.recs[i].first[k], refSweepSlot(net, u, iv.MidDirection(), topo.NoNode)
			if got >= 0 {
				got += off
			}
			if got != want {
				t.Fatalf("%s: node %d interval %d first hop slot %d; oracle %d", label, u, k, got, want)
			}
		}
	}
}

// churn runs an interleaved fail/revive/move sequence of the given
// length on net, repairing b after every step and handing it to check
// with the step's kind. Moves drift 6 random nodes, dead ones included.
func churn(t *testing.T, net *topo.Network, b *Boundaries, seed uint64, steps int, check func(kind string)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xb0d4))
	var dead []topo.NodeID
	for step := 0; step < steps; step++ {
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
		check([]string{"fail", "revive", "move"}[step%3])
	}
}

// edgeTies pushes the nodes of OB-300-5's left strip onto the field
// edge in batches of four, where neighbors on the edge line share an
// exact bearing from each other, and hands the repaired boundaries to
// check after every batch. The sweep tie rule then sends two back-edges
// to one successor, so σ stops being a bijection and walks start off
// every σ-cycle: the scenario fails unless both happen.
func edgeTies(t *testing.T, check func(b *Boundaries)) {
	t.Helper()
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
		check(b)
		d, w := offCycle(b)
		darts, walks = max(darts, d), max(walks, w)
	}
	if darts == 0 || walks == 0 {
		t.Fatalf("scenario puts %d darts and %d walk starts off the σ-cycles; both must be positive, pick a new seed", darts, walks)
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
			b := FindHoles(dep.Net)
			requireReference(t, "fresh", b)
			churn(t, dep.Net, b, tc.seed, 12, func(kind string) { requireReference(t, kind, b) })
		})
	}
	t.Run("edge-ties", func(t *testing.T) {
		edgeTies(t, func(b *Boundaries) { requireReference(t, "edge move", b) })
	})
}

// TestRotationWalksMatchSortOracle pins the rotation walks — the
// successor table's rows, TENT and the first-hop sweeps — to the
// sort-based TENT and row-scan sweeps they replaced, on the benchmark's
// IA-, FA- and OB-800-42 networks fresh and through churn, and through
// the edge-ties moves. A sparse lattice with some nodes nudged by 1e-14
// m adds rows whose bearings tie exactly, differ by rounding only, or
// meet across the 0/2π seam.
func TestRotationWalksMatchSortOracle(t *testing.T) {
	for _, model := range []topo.DeployModel{topo.ModelIA, topo.ModelFA, topo.ModelOB} {
		t.Run(model.String(), func(t *testing.T) {
			dep, err := topo.Deploy(topo.DefaultDeployConfig(model, 800, 42))
			if err != nil {
				t.Fatal(err)
			}
			b := FindHoles(dep.Net)
			requireSortOracle(t, "fresh", b)
			churn(t, dep.Net, b, 42, 9, func(kind string) { requireSortOracle(t, kind, b) })
		})
	}
	t.Run("lattice", func(t *testing.T) {
		var pos []geom.Point
		for i := range 16 {
			for j := range 16 {
				p := geom.Pt(float64(i)*10, float64(j)*10)
				switch (i*16 + j) % 7 {
				case 1:
					p.Y += 1e-14
				case 2:
					p.Y -= 1e-14
				case 3:
					p.X += 1e-14
				}
				pos = append(pos, p)
			}
		}
		net, err := topo.NewNetwork(pos, 21, geom.FromCorners(geom.Pt(0, 0), geom.Pt(150, 150)))
		if err != nil {
			t.Fatal(err)
		}
		b := FindHoles(net)
		requireSortOracle(t, "fresh", b)
		churn(t, net, b, 7, 9, func(kind string) { requireSortOracle(t, kind, b) })
	})
	t.Run("edge-ties", func(t *testing.T) {
		edgeTies(t, func(b *Boundaries) { requireSortOracle(t, "edge move", b) })
	})
}
