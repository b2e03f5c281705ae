package serve

import (
	"slices"
	"sort"
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// oracleApply is the map-and-sort fold DeploymentState.apply replaced:
// it rebuilds the dead set and the moved positions as maps from the
// whole state on every call and sorts them back into slices. It is the
// differential oracle of FuzzStateApply.
func oracleApply(st *DeploymentState, m Mutation) Mutation {
	dead := make(map[topo.NodeID]bool, len(st.Failed)+len(m.Nodes))
	for _, u := range st.Failed {
		dead[u] = true
	}
	eff := m.effective(func(u topo.NodeID) bool { return dead[u] })
	if eff.empty() {
		return eff
	}
	switch m.Kind {
	case MutationFail, MutationRevive:
		for _, u := range eff.Nodes {
			dead[u] = m.Kind == MutationFail
		}
		failed := make([]topo.NodeID, 0, len(dead))
		for u, isDead := range dead {
			if isDead {
				failed = append(failed, u)
			}
		}
		sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
		st.Failed = failed
	case MutationMove:
		pos := make(map[topo.NodeID]topo.Move, len(st.Moved)+len(m.Moves))
		for _, mv := range st.Moved {
			pos[mv.Node] = mv
		}
		for _, mv := range m.Moves {
			pos[mv.Node] = mv
		}
		moved := make([]topo.Move, 0, len(pos))
		for _, mv := range pos {
			moved = append(moved, mv)
		}
		sort.Slice(moved, func(i, j int) bool { return moved[i].Node < moved[j].Node })
		st.Moved = moved
	}
	st.Epoch++
	return eff
}

// FuzzStateApply folds random histories with DeploymentState.apply and
// with the map-and-sort oracle, and requires the same effective
// mutation, Failed, Moved and Epoch after every step. Each step is a
// kind byte (fail, revive or move, by value mod 3) and a length byte
// (mod 8, so empty batches come up) followed per item by a node byte,
// and for a move by a position byte. Nodes come from 0..15, so batches
// repeat nodes (the last move of a node wins), fails hit dead nodes,
// revives live ones, and moves dead ones. Applying a fail, revive or
// move must also leave the slices handed out before it unchanged.
func FuzzStateApply(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 1, 2, 5, 1, 9, 7, 2, 2, 1, 3, 1, 4, 2, 0, 1, 1})
	f.Add([]byte{2, 4, 3, 10, 3, 20, 5, 30, 3, 40, 0, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 7, 0, 1, 2, 3, 4, 5, 6, 1, 7, 6, 5, 4, 3, 2, 1, 0, 2, 2, 6, 1, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want DeploymentState
		for step := 0; len(data) >= 2; step++ {
			m := Mutation{Kind: MutationFail + MutationKind(data[0]%3)}
			n := int(data[1] % 8)
			data = data[2:]
			for k := 0; k < n && len(data) > 0; k++ {
				u := topo.NodeID(data[0] % 16)
				data = data[1:]
				if m.Kind != MutationMove {
					m.Nodes = append(m.Nodes, u)
					continue
				}
				var p byte
				if len(data) > 0 {
					p, data = data[0], data[1:]
				}
				m.Moves = append(m.Moves, topo.Move{Node: u, X: float64(p), Y: float64(step)})
			}
			failed, moved := got.Failed, got.Moved
			before := slices.Clone(failed)
			movedBefore := slices.Clone(moved)
			eff := got.apply(m)
			wantEff := oracleApply(&want, m)
			if !slices.Equal(eff.Nodes, wantEff.Nodes) || !slices.Equal(eff.Moves, wantEff.Moves) {
				t.Fatalf("step %d %v %v: effective %+v; oracle %+v", step, m.Kind, m, eff, wantEff)
			}
			if !slices.Equal(got.Failed, want.Failed) || !slices.Equal(got.Moved, want.Moved) || got.Epoch != want.Epoch {
				t.Fatalf("step %d %v %v: state %+v; oracle %+v", step, m.Kind, m, got, want)
			}
			if !slices.Equal(failed, before) || !slices.Equal(moved, movedBefore) {
				t.Fatalf("step %d: apply wrote into the slices of the previous state", step)
			}
		}
	})
}

// TestApplyNormalizesState folds mutations into a state whose Failed
// and Moved are out of order and hold duplicates, as a state built or
// decoded elsewhere may: dead {2, 5, 7}, and node 6 last moved to 12.
func TestApplyNormalizesState(t *testing.T) {
	mv := func(u topo.NodeID, x float64) topo.Move { return topo.Move{Node: u, X: x, Y: x} }
	for _, c := range []struct {
		m      Mutation
		failed []topo.NodeID
		moved  []topo.Move
	}{
		{Mutation{Kind: MutationFail, Nodes: []topo.NodeID{4, 1}}, []topo.NodeID{1, 2, 4, 5, 7}, []topo.Move{mv(3, 11), mv(6, 12)}},
		{Mutation{Kind: MutationFail, Nodes: []topo.NodeID{9, 3}}, []topo.NodeID{2, 3, 5, 7, 9}, []topo.Move{mv(3, 11), mv(6, 12)}},
		{Mutation{Kind: MutationRevive, Nodes: []topo.NodeID{7, 2}}, []topo.NodeID{5}, []topo.Move{mv(3, 11), mv(6, 12)}},
		{Mutation{Kind: MutationMove, Moves: []topo.Move{mv(3, 1), mv(8, 2)}}, []topo.NodeID{2, 5, 7}, []topo.Move{mv(3, 1), mv(6, 12), mv(8, 2)}},
	} {
		st := DeploymentState{
			Failed: []topo.NodeID{7, 2, 7, 5},
			Moved:  []topo.Move{mv(6, 10), mv(3, 11), mv(6, 12)},
		}
		if !st.Apply(c.m) || !slices.Equal(st.Failed, c.failed) || !slices.Equal(st.Moved, c.moved) || st.Epoch != 1 {
			t.Errorf("%v %v: state %+v; want failed %v, moved %v, epoch 1", c.m.Kind, c.m, st, c.failed, c.moved)
		}
	}
}
