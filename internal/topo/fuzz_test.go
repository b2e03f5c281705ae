package topo

import (
	"cmp"
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
)

// fuzzNet builds the deterministic deployment a fuzz input runs against:
// byte 0 picks the model, byte 1 the seed.
func fuzzNet(sel, seedSel byte) (*Network, error) {
	model := []DeployModel{ModelIA, ModelFA, ModelOB}[int(sel)%3]
	seed := uint64(seedSel % 8)
	dep, err := Deploy(DefaultDeployConfig(model, 120, seed))
	if err != nil {
		return nil, err
	}
	return dep.Net, nil
}

// decodeMoves consumes data in 3-byte chunks (node, x, y) scaled onto
// the field, capping the op count so pathological inputs stay fast.
func decodeMoves(net *Network, data []byte, maxOps int) []Move {
	var moves []Move
	for len(data) >= 3 && len(moves) < maxOps {
		u := NodeID(int(data[0]) % net.N())
		x := net.Field.Min.X + float64(data[1])/255*net.Field.Width()
		y := net.Field.Min.Y + float64(data[2])/255*net.Field.Height()
		moves = append(moves, Move{Node: u, X: x, Y: y})
		data = data[3:]
	}
	return moves
}

// stableRotation is the rotation oracle: u's columns stably sorted by
// bearing, so equal bearings stay in column order.
func stableRotation(net *Network, u NodeID) []int32 {
	angs := net.AdjacencyAngles(u)
	rot := make([]int32, len(angs))
	for j := range rot {
		rot[j] = int32(j)
	}
	slices.SortStableFunc(rot, func(a, b int32) int { return cmp.Compare(angs[a], angs[b]) })
	return rot
}

// FuzzSetPosition drives arbitrary encoded move batches through
// SetPositions and asserts the repaired CSR adjacency — offsets, rows,
// bearings, packed positions, rotations, reverse slots — is bit-for-bit
// the fresh NewNetwork build over the same coordinates, that every
// rotation is the stable sort of its row by bearing, that every reverse
// slot holds the reverse edge, and that the dirty set covers every row
// that changed. Every other batch runs on a Clone, which must leave its
// parent's rows, rotations and reverse slots untouched.
func FuzzSetPosition(f *testing.F) {
	// Range-boundary: node 3 lands exactly one radius from node 7's cell
	// scale; batch splits exercise multi-batch repair.
	f.Add([]byte{0, 0, 3, 128, 128, 7, 148, 128, 3, 0, 0})
	// Hull-pin: teleport corner-most nodes across the field so convex
	// hull membership flips both ways.
	f.Add([]byte{1, 2, 0, 255, 255, 1, 0, 0, 0, 255, 0})
	// Coincident positions: two nodes stacked on the same point.
	f.Add([]byte{2, 1, 4, 100, 100, 5, 100, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		net, err := fuzzNet(data[0], data[1])
		if err != nil {
			t.Skip()
		}
		data = data[2:]
		// Split the stream into a few batches to exercise repeated
		// repair over the same scratch.
		for len(data) >= 3 {
			chunk := data
			if len(chunk) > 12 {
				chunk = chunk[:12]
			}
			data = data[len(chunk):]
			moves := decodeMoves(net, chunk, 4)
			if len(moves) == 0 {
				break
			}
			parent, parentList, parentRot, parentRev := net, slices.Clone(net.adjList), slices.Clone(net.adjRot), slices.Clone(net.adjRev)
			if len(data)%2 == 0 {
				net = net.Clone()
			}
			dirty, err := net.SetPositions(moves)
			if err != nil {
				t.Fatal(err)
			}
			if parent != net && (!slices.Equal(parent.adjList, parentList) || !slices.Equal(parent.adjRot, parentRot) ||
				!slices.Equal(parent.adjRev, parentRev)) {
				t.Fatalf("SetPositions on a clone rewrote its parent's rows after moves %v", moves)
			}
			if !slices.IsSorted(dirty) {
				t.Fatal("dirty set not sorted")
			}
			fresh, err := NewNetwork(net.Positions(), net.Radius, net.Field)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(net.adjOff, fresh.adjOff) ||
				!slices.Equal(net.adjList, fresh.adjList) ||
				!slices.Equal(net.adjAng, fresh.adjAng) ||
				!slices.Equal(net.adjX, fresh.adjX) ||
				!slices.Equal(net.adjY, fresh.adjY) ||
				!slices.Equal(net.adjRot, fresh.adjRot) ||
				!slices.Equal(net.adjRev, fresh.adjRev) {
				t.Fatalf("CSR diverged from fresh build after moves %v", moves)
			}
			for u := range net.Nodes {
				for s := net.adjOff[u]; s < net.adjOff[u+1]; s++ {
					if r := net.adjRev[s]; net.adjList[r] != NodeID(u) || net.adjRev[r] != s {
						t.Fatalf("reverse of slot %d (%d->%d) is slot %d, not the reverse edge", s, u, net.adjList[s], r)
					}
				}
			}
			for u := range net.Nodes {
				if got, want := net.AdjacencyRotation(NodeID(u)), stableRotation(net, NodeID(u)); !slices.Equal(got, want) {
					t.Fatalf("rotation of row %d = %v; stable sort by bearing %v", u, got, want)
				}
			}
			inDirty := make(map[NodeID]bool, len(dirty))
			for _, u := range dirty {
				inDirty[u] = true
			}
			for u := 0; u < net.N(); u++ {
				id := NodeID(u)
				if !inDirty[id] {
					continue
				}
				// Dirty rows must still be sorted ascending with exact
				// bearings (spot-check the contract consumers rely on).
				row := net.AdjacencyRow(id)
				if !slices.IsSorted(row) {
					t.Fatalf("row %d not sorted after repair", u)
				}
				angs := net.AdjacencyAngles(id)
				for j, v := range row {
					if want := geom.Angle(net.Pos(id), net.Pos(v)); angs[j] != want {
						t.Fatalf("bearing %d->%d = %v, want %v", u, v, angs[j], want)
					}
				}
			}
		}
	})
}
