package bound

import (
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// FuzzBoundariesReference replays arbitrary encoded fail/revive/move
// batches against incrementally repaired boundaries and checks them
// against the sweep-per-step reference walk after every batch. The
// encoding is the one of core's FuzzRepairSubstrates: a selector byte
// per op — 0-1 move (node, x, y bytes), 2 fail (node byte), 3 revive
// (node byte), anything else ends the batch. Moves land on a lattice of
// byte/255 of the field, so exact bearing ties — the case where the
// successor table stops being a permutation — come up often.
func FuzzBoundariesReference(f *testing.F) {
	f.Add([]byte{0, 0, 2, 10, 2, 11, 2, 12, 9, 3, 10, 3, 11, 0, 40, 90, 90})
	f.Add([]byte{1, 1, 0, 5, 255, 255, 1, 6, 0, 0, 9, 2, 5, 9, 3, 5})
	f.Add([]byte{2, 3, 0, 50, 140, 128, 1, 51, 148, 128, 9, 0, 50, 150, 128})
	// Edge clamp: ten nodes onto the left field edge, 9.4 m apart, in two
	// batches; walks then start off the σ-cycles.
	f.Add([]byte{1, 0, 0, 3, 0, 80, 0, 7, 0, 92, 0, 11, 0, 104, 0, 19, 0, 116, 0, 23, 0, 128, 0, 29, 0, 140, 9, 0, 31, 0, 152, 0, 37, 0, 164, 0, 41, 0, 176, 0, 43, 0, 188})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		model := []topo.DeployModel{topo.ModelIA, topo.ModelFA, topo.ModelOB}[int(data[0])%3]
		dep, err := topo.Deploy(topo.DefaultDeployConfig(model, 110, uint64(data[1]%8)))
		if err != nil {
			t.Skip()
		}
		net := dep.Net
		b := FindHoles(net)
		requireReference(t, "fresh", b)
		data = data[2:]
		for batches := 0; len(data) > 0 && batches < 6; batches++ {
			var moves []topo.Move
			var churned []topo.NodeID
			for ops := 0; len(data) > 0 && ops < 6; ops++ {
				sel := data[0]
				if sel > 3 {
					data = data[1:]
					break
				}
				need := 2
				if sel < 2 {
					need = 4
				}
				if len(data) < need {
					data = nil
					break
				}
				u := topo.NodeID(int(data[1]) % net.N())
				switch {
				case sel < 2:
					moves = append(moves, topo.Move{
						Node: u,
						X:    net.Field.Min.X + float64(data[2])/255*net.Field.Width(),
						Y:    net.Field.Min.Y + float64(data[3])/255*net.Field.Height(),
					})
					data = data[4:]
				default:
					if revive := sel == 3; net.Alive(u) != revive {
						net.SetAlive(u, revive)
						churned = append(churned, u)
					}
					data = data[2:]
				}
			}
			if len(churned) > 0 {
				b.Repair(churned)
				requireReference(t, "churn", b)
			}
			if len(moves) > 0 {
				dirty, err := net.SetPositions(moves)
				if err != nil {
					t.Fatal(err)
				}
				b.RepairMoved(dirty)
				requireReference(t, "move", b)
			}
		}
	})
}
