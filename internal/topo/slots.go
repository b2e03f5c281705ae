package topo

import "slices"

// SlotTable is per-slot state a substrate keeps over the network's CSR
// edge slots — BOUNDHOLE's successor columns, the planar keep-mask —
// carried across SetPositions by Relayout. Entries must be row-relative
// (columns, flags), never slot indices, so that a row whose geometry
// did not change stays valid when the CSR shifts it.
type SlotTable[T any] struct {
	// At[s] is the entry of CSR slot s.
	At []T
	// off holds the row offsets At is laid out against; spare is the
	// second buffer Relayout fills.
	off   []int32
	spare []T
}

// NewSlotTable returns a zeroed table laid out against net's CSR.
func NewSlotTable[T any](net *Network) SlotTable[T] {
	return SlotTable[T]{At: make([]T, len(net.adjList)), off: slices.Clone(net.adjOff)}
}

// Row returns the entries of u's row, index aligned with the
// AdjacencyRow(u) the table is laid out against.
func (t *SlotTable[T]) Row(u NodeID) []T { return t.At[t.off[u]:t.off[u+1]] }

// Clone returns a copy whose entries a repair may write in place while
// others read the receiver, which must not be written afterwards. The
// offsets are shared (Relayout replaces them, never writes them) and
// the spare buffer dropped: it may still be the table an earlier clone
// is being read through.
func (t *SlotTable[T]) Clone() SlotTable[T] {
	return SlotTable[T]{At: slices.Clone(t.At), off: t.off}
}

// Relayout lays the table out against net's CSR after SetPositions
// returned dirty, which must be sorted ascending as SetPositions returns
// it. A clean row keeps its length and entries and only shifts, by an
// offset delta that changes only at a dirty row, so each run of clean
// rows moves over in one copy. Dirty rows are left stale for the caller
// to refill.
func (t *SlotTable[T]) Relayout(net *Network, dirty []NodeID) {
	if !slices.IsSorted(dirty) {
		panic("topo: SlotTable.Relayout needs the sorted dirty set SetPositions returns")
	}
	old, oldOff := t.At, t.off
	t.At = slices.Grow(t.spare[:0], len(net.adjList))[:len(net.adjList)]
	t.off = slices.Clone(net.adjOff)
	u := 0
	for i := 0; i <= len(dirty); i++ {
		end := len(net.Nodes)
		if i < len(dirty) {
			end = int(dirty[i])
		}
		if u < end {
			copy(t.At[t.off[u]:t.off[end]], old[oldOff[u]:oldOff[end]])
		}
		u = max(u, end+1)
	}
	t.spare = old
}
