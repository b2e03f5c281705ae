package core

import (
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// fuzzOps decodes one encoded mutation batch stream. Each op starts with
// a selector byte: 0-1 move (consumes 3 more bytes: node, x, y),
// 2 fail (1 more byte), 3 revive (1 more byte), anything else ends the
// current batch. Batches are applied and repaired one at a time.
type fuzzOp struct {
	move   *topo.Move
	fail   topo.NodeID
	revive bool
	churn  bool
}

func decodeBatch(net *topo.Network, data []byte) (ops []fuzzOp, rest []byte) {
	const maxOps = 6
	for len(data) > 0 && len(ops) < maxOps {
		sel := data[0]
		data = data[1:]
		switch {
		case sel < 2:
			if len(data) < 3 {
				return ops, nil
			}
			m := topo.Move{
				Node: topo.NodeID(int(data[0]) % net.N()),
				X:    net.Field.Min.X + float64(data[1])/255*net.Field.Width(),
				Y:    net.Field.Min.Y + float64(data[2])/255*net.Field.Height(),
			}
			ops = append(ops, fuzzOp{move: &m})
			data = data[3:]
		case sel == 2:
			if len(data) < 1 {
				return ops, nil
			}
			ops = append(ops, fuzzOp{fail: topo.NodeID(int(data[0]) % net.N()), churn: true})
			data = data[1:]
		case sel == 3:
			if len(data) < 1 {
				return ops, nil
			}
			ops = append(ops, fuzzOp{fail: topo.NodeID(int(data[0]) % net.N()), revive: true, churn: true})
			data = data[1:]
		default:
			return ops, data
		}
	}
	return ops, data
}

// FuzzRepairSubstrates replays arbitrary encoded move/fail/revive
// batches against incrementally repaired substrates and a from-scratch
// rebuild, failing on any divergence in safety labels, pins, hole
// cycles, or planar rows. This is the fuzz-native form of the
// TestRepairSubstratesMoved differential battery.
func FuzzRepairSubstrates(f *testing.F) {
	// Revival-fallback: fail a clump then revive it (safety full-relabel
	// path) interleaved with drift.
	f.Add([]byte{0, 0, 2, 10, 2, 11, 2, 12, 9, 3, 10, 3, 11, 0, 40, 90, 90})
	// Hull-pin churn: teleport far corners so edge pins flip, then fail
	// a hull node.
	f.Add([]byte{1, 1, 0, 5, 255, 255, 1, 6, 0, 0, 9, 2, 5, 9, 3, 5})
	// Obstacle model with range-boundary drift around a hole rim.
	f.Add([]byte{2, 3, 0, 50, 140, 128, 1, 51, 148, 128, 9, 0, 50, 150, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		model := []topo.DeployModel{topo.ModelIA, topo.ModelFA, topo.ModelOB}[int(data[0])%3]
		seed := uint64(data[1] % 8)
		data = data[2:]
		dep, err := topo.Deploy(topo.DefaultDeployConfig(model, 110, seed))
		if err != nil {
			t.Skip()
		}
		net := dep.Net
		m, b, g := BuildSubstrates(net, true, true, true, nil)

		for batches := 0; len(data) > 0 && batches < 6; batches++ {
			var ops []fuzzOp
			ops, data = decodeBatch(net, data)
			if len(ops) == 0 {
				continue
			}
			// Apply liveness ops individually, collect moves into one
			// batch — mirroring how the serve layer feeds repairs.
			var moves []topo.Move
			var churned []topo.NodeID
			for _, op := range ops {
				if op.move != nil {
					moves = append(moves, *op.move)
					continue
				}
				if net.Alive(op.fail) != op.revive {
					continue // no-op flip
				}
				net.SetAlive(op.fail, op.revive)
				churned = append(churned, op.fail)
			}
			if len(churned) > 0 {
				RepairSubstrates(m, b, g, churned)
			}
			if len(moves) > 0 {
				dirty, err := net.SetPositions(moves)
				if err != nil {
					t.Fatal(err)
				}
				RepairSubstratesMoved(m, b, g, dirty)
			}
			if len(churned) == 0 && len(moves) == 0 {
				continue
			}

			fresh, err := topo.NewNetwork(net.Positions(), net.Radius, net.Field)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < net.N(); u++ {
				if !net.Alive(topo.NodeID(u)) {
					fresh.SetAlive(topo.NodeID(u), false)
				}
			}
			fm, fb, fg := BuildSubstrates(fresh, true, true, true, nil)
			for u := 0; u < net.N(); u++ {
				id := topo.NodeID(u)
				if m.Tuple(id) != fm.Tuple(id) || m.Pinned(id) != fm.Pinned(id) {
					t.Fatalf("safety diverged at node %d: %s/%v vs fresh %s/%v",
						u, m.Tuple(id), m.Pinned(id), fm.Tuple(id), fm.Pinned(id))
				}
				for _, z := range geom.AllZones {
					gr, gok := m.Shape(id, z)
					wr, wok := fm.Shape(id, z)
					if gok != wok || gr != wr {
						t.Fatalf("shape diverged at node %d zone %d", u, z)
					}
				}
				for _, v := range slices.Concat(net.AdjacencyRow(id), fresh.AdjacencyRow(id)) {
					if g.HasEdge(id, v) != fg.HasEdge(id, v) {
						t.Fatalf("planar edge %d->%d diverged: kept=%v, fresh kept=%v",
							u, v, g.HasEdge(id, v), fg.HasEdge(id, v))
					}
				}
			}
			if len(b.Holes) != len(fb.Holes) || b.MessageCount != fb.MessageCount {
				t.Fatalf("holes diverged: %d/%d msgs vs fresh %d/%d",
					len(b.Holes), b.MessageCount, len(fb.Holes), fb.MessageCount)
			}
			for i := range b.Holes {
				if !slices.Equal(b.Holes[i].Cycle, fb.Holes[i].Cycle) {
					t.Fatalf("hole %d cycle diverged", i)
				}
			}
		}
	})
}
