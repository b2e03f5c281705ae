package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/bound"
	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// TestRepairSubstratesMatchesFullRebuild drives random failure/revival
// sequences over IA and FA deployments and asserts after every mutation
// that the incrementally repaired substrates are indistinguishable from
// substrates built from scratch on the mutated network: identical
// safety labels, pins, shape estimates and confinement boxes, identical
// hole ids/cycles/bboxes and message counts, identical planar rows.
// This is the differential guarantee serve.Fail and Sim.Fail rely on.
func TestRepairSubstratesMatchesFullRebuild(t *testing.T) {
	cases := []struct {
		model topo.DeployModel
		n     int
		seed  uint64
	}{
		{topo.ModelIA, 220, 5},
		{topo.ModelFA, 260, 9},
	}
	for _, tc := range cases {
		t.Run(tc.model.String(), func(t *testing.T) {
			dep, err := topo.Deploy(topo.DefaultDeployConfig(tc.model, tc.n, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			net := dep.Net
			m, b, g := BuildSubstrates(net, true, true, true, nil)

			rng := rand.New(rand.NewPCG(tc.seed, 0x9e3779b97f4a7c15))
			var dead []topo.NodeID
			for step := 0; step < 14; step++ {
				changed := mutateLiveness(rng, net, &dead)
				if len(changed) == 0 {
					continue
				}
				RepairSubstrates(m, b, g, changed)

				fm, fb, fg := BuildSubstrates(net, true, true, true, nil)
				compareSafety(t, step, net, m, fm)
				compareBounds(t, step, b, fb)
				comparePlanar(t, step, net, g, fg)
				if t.Failed() {
					t.Fatalf("step %d: repaired substrates diverged after changing %v (dead set %v)", step, changed, dead)
				}
			}
			if len(dead) == 0 {
				t.Fatal("mutation sequence never killed a node")
			}
		})
	}
}

// mutateLiveness applies one random batch of failures (usually) or
// revivals (sometimes, when nodes are dead) to net, maintaining the
// dead list, and returns the changed node ids.
func mutateLiveness(rng *rand.Rand, net *topo.Network, dead *[]topo.NodeID) []topo.NodeID {
	var changed []topo.NodeID
	if len(*dead) > 0 && rng.IntN(10) < 3 {
		// Revive one or two dead nodes.
		k := 1 + rng.IntN(2)
		for i := 0; i < k && len(*dead) > 0; i++ {
			j := rng.IntN(len(*dead))
			u := (*dead)[j]
			(*dead)[j] = (*dead)[len(*dead)-1]
			*dead = (*dead)[:len(*dead)-1]
			net.SetAlive(u, true)
			changed = append(changed, u)
		}
		return changed
	}
	k := 1 + rng.IntN(3)
	for i := 0; i < k; i++ {
		u := topo.NodeID(rng.IntN(net.N()))
		if !net.Alive(u) {
			continue
		}
		net.SetAlive(u, false)
		*dead = append(*dead, u)
		changed = append(changed, u)
	}
	return changed
}

func compareSafety(t *testing.T, step int, net *topo.Network, got, want *safety.Model) {
	t.Helper()
	for i := 0; i < net.N(); i++ {
		u := topo.NodeID(i)
		if got.Tuple(u) != want.Tuple(u) {
			t.Errorf("step %d: node %d tuple = %s, fresh rebuild says %s", step, u, got.Tuple(u), want.Tuple(u))
		}
		if got.Pinned(u) != want.Pinned(u) {
			t.Errorf("step %d: node %d pinned = %v, fresh rebuild says %v", step, u, got.Pinned(u), want.Pinned(u))
		}
		for _, z := range geom.AllZones {
			if got.U1(u, z) != want.U1(u, z) || got.U2(u, z) != want.U2(u, z) {
				t.Errorf("step %d: node %d zone %d far nodes = (%d,%d), fresh (%d,%d)",
					step, u, z, got.U1(u, z), got.U2(u, z), want.U1(u, z), want.U2(u, z))
			}
			gr, gok := got.Shape(u, z)
			wr, wok := want.Shape(u, z)
			if gok != wok || gr != wr {
				t.Errorf("step %d: node %d zone %d shape = %v/%v, fresh %v/%v", step, u, z, gr, gok, wr, wok)
			}
			gf, gok := got.FarCorner(u, z)
			wf, wok := want.FarCorner(u, z)
			if gok != wok || gf != wf {
				t.Errorf("step %d: node %d zone %d far corner = %v/%v, fresh %v/%v", step, u, z, gf, gok, wf, wok)
			}
		}
		gc, gok := got.ConfinementBox(u)
		wc, wok := want.ConfinementBox(u)
		if gok != wok || gc != wc {
			t.Errorf("step %d: node %d confinement = %v/%v, fresh %v/%v", step, u, gc, gok, wc, wok)
		}
	}
}

func compareBounds(t *testing.T, step int, got, want *bound.Boundaries) {
	t.Helper()
	if got.MessageCount != want.MessageCount {
		t.Errorf("step %d: message count = %d, fresh rebuild says %d", step, got.MessageCount, want.MessageCount)
	}
	if len(got.Holes) != len(want.Holes) {
		t.Errorf("step %d: %d holes, fresh rebuild finds %d", step, len(got.Holes), len(want.Holes))
		return
	}
	for i := range got.Holes {
		gh, wh := got.Holes[i], want.Holes[i]
		if gh.ID != wh.ID || gh.BBox != wh.BBox || len(gh.Cycle) != len(wh.Cycle) {
			t.Errorf("step %d: hole %d = {id %d, %d nodes, %v}, fresh {id %d, %d nodes, %v}",
				step, i, gh.ID, len(gh.Cycle), gh.BBox, wh.ID, len(wh.Cycle), wh.BBox)
			continue
		}
		for j := range gh.Cycle {
			if gh.Cycle[j] != wh.Cycle[j] {
				t.Errorf("step %d: hole %d cycle[%d] = %d, fresh %d", step, i, j, gh.Cycle[j], wh.Cycle[j])
				break
			}
		}
	}
	// Node index: same holes at every boundary node.
	for _, wh := range want.Holes {
		for _, u := range wh.Cycle {
			gids := holeIDs(got.HolesAt(u))
			wids := holeIDs(want.HolesAt(u))
			if len(gids) != len(wids) {
				t.Errorf("step %d: HolesAt(%d) = %v, fresh %v", step, u, gids, wids)
				continue
			}
			for k := range gids {
				if gids[k] != wids[k] {
					t.Errorf("step %d: HolesAt(%d) = %v, fresh %v", step, u, gids, wids)
					break
				}
			}
		}
	}
}

func holeIDs(hs []*bound.Hole) []int {
	ids := make([]int, len(hs))
	for i, h := range hs {
		ids[i] = h.ID
	}
	return ids
}

// comparePlanar asserts that every static edge of every node, in the
// repaired network or the fresh one, is kept by the repaired graph
// exactly when the fresh build keeps it.
func comparePlanar(t *testing.T, step int, net *topo.Network, got, want *planar.Graph) {
	t.Helper()
	for i := 0; i < net.N(); i++ {
		u := topo.NodeID(i)
		for _, v := range slices.Concat(got.Net.AdjacencyRow(u), want.Net.AdjacencyRow(u)) {
			if g, w := got.EdgeSlot(u, v) >= 0, want.EdgeSlot(u, v) >= 0; g != w {
				t.Errorf("step %d: planar edge %d->%d kept=%v, fresh rebuild kept=%v", step, u, v, g, w)
			}
		}
	}
}
