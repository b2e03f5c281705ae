package topo

import (
	"fmt"
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
)

// Move is one position update: node Node relocates to (X, Y). Batches of
// moves are applied atomically by SetPositions; the JSON tags are the
// wire shape of the serve /move endpoint and the workload trace format.
type Move struct {
	Node NodeID  `json:"node"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// SetPositions applies a batch of position updates and repairs the CSR
// adjacency in place: coordinates, the packed AdjacencyXY arrays, the
// rows, bearings and rotations of every edge entering or leaving radio
// range, and the reverse slots of every edge. It returns the sorted ids
// of all nodes whose geometric neighborhood changed — the moved nodes,
// their old static neighbors, and their new in-range neighbors — which
// is exactly the dirty set substrate position repair
// (core.RepairSubstratesMoved) needs.
//
// The rewrite is double-buffered: rows of clean nodes are copied span-
// for-span into scratch backing arrays, dirty rows are recomputed from
// the retained spatial grid, and the buffers are swapped. After warmup
// the scratch is reused, so steady-state drift batches allocate nothing.
// The returned slice aliases internal scratch and is only valid until the
// next SetPositions call.
//
// Liveness is orthogonal: dead nodes may move, and moving never changes
// alive bits. Edge-slot consumers beware: row offsets (AdjOffset,
// AdjSlots) shift when rows resize, so per-edge state keyed by slot
// index must be re-derived, generation-stamped, or kept in a SlotTable
// and relaid out with the returned dirty set after a move batch.
func (net *Network) SetPositions(moves []Move) ([]NodeID, error) {
	if len(moves) == 0 {
		return nil, nil
	}
	n := len(net.Nodes)
	for _, m := range moves {
		if m.Node < 0 || int(m.Node) >= n {
			return nil, fmt.Errorf("topo: move of unknown node %d (have %d)", m.Node, n)
		}
	}
	if len(net.mvMark) < n {
		net.mvMark, net.mvMoved, net.mvIdx = make([]uint32, n), make([]uint32, n), make([]int32, n)
		net.mvGen = 0
	}
	net.mvGen++
	gen := net.mvGen
	dirty := net.mvDirty[:0]
	mark := func(v NodeID) {
		if net.mvMark[v] != gen {
			net.mvMark[v] = gen
			dirty = append(dirty, v)
		}
	}

	// Phase 1 — while the static rows still describe the old geometry:
	// mark each moved node and everyone who could see it at its old
	// position (its old static row), then apply the position update to
	// the node table and the spatial grid.
	movers := net.mvMovers[:0]
	for _, m := range moves {
		u := m.Node
		mark(u)
		net.mvMoved[u] = gen
		movers = append(movers, u)
		for _, v := range net.row(u) {
			mark(v)
		}
		np := geom.Pt(m.X, m.Y)
		net.grid.move(u, net.Nodes[u].Pos, np)
		net.Nodes[u].Pos = np
	}

	// Phase 2 — with every new position in place: one grid query per
	// mover gives its new row (unsorted, kept for rebuildRows) and marks
	// everyone who can see it now. A node's row changes iff it moved, or
	// a moved node was in range (phase 1) or is in range (here); nothing
	// else can alter its in-range set or any neighbor coordinate.
	slices.Sort(movers)
	movers = slices.Compact(movers)
	r2 := net.Radius * net.Radius
	near, ends := net.mvNear[:0], net.mvEnds[:0]
	for _, u := range movers {
		start := len(near)
		near = net.grid.appendInRange(near, net.Nodes, u, r2)
		for _, v := range near[start:] {
			mark(v)
		}
		ends = append(ends, int32(len(near)))
	}

	slices.Sort(dirty)
	net.mvDirty, net.mvMovers, net.mvNear, net.mvEnds = dirty, movers, near, ends
	net.rebuildRows(dirty, gen)
	return dirty, nil
}

// rebuildRows rewrites the CSR backing arrays with fresh rows for the
// dirty nodes (mvMark[i]==gen; the movers have mvMoved[i]==gen too) and
// span copies for everyone else, then
// swaps the double buffers; the reverse slots are derived last, from
// the new rows (deriveRev). A mover's row is the one SetPositions'
// grid query found (mvNear), sorted and laid out afresh (layRow). A
// dirty node that did not move keeps every neighbor that did not move
// either, with its bearing and position: only its entries for the
// movers change, so its row is the old one without the movers' entries
// and with the movers now in range merged in (sorted, distinct: the
// reverse of the movers' new rows, whose grid queries applied the
// range test from both ends at once), and its rotation is the old one
// renumbered, with the movers' entries dropped and their new ones
// inserted by bearing.
func (net *Network) rebuildRows(dirty []NodeID, gen uint32) {
	n := len(net.Nodes)
	movers := net.mvMovers
	moved := func(v NodeID) bool { return net.mvMoved[v] == gen }
	// moverRow returns the new row of mover v, unsorted, and whether v moved.
	moverRow := func(v NodeID) ([]NodeID, bool) {
		if !moved(v) {
			return nil, false
		}
		i, _ := slices.BinarySearch(movers, v)
		lo := int32(0)
		if i > 0 {
			lo = net.mvEnds[i-1]
		}
		return net.mvNear[lo:net.mvEnds[i]], true
	}

	// arrive[aoff[i]:aoff[i+1]] lists the movers now in range of
	// dirty[i], ascending; mvIdx maps a dirty node to its index i.
	for i, u := range dirty {
		net.mvIdx[u] = int32(i)
	}
	net.mvArriveOff = growScratch(net.mvArriveOff, len(dirty)+1, false)
	aoff := net.mvArriveOff[:len(dirty)+1]
	clear(aoff)
	for _, w := range net.mvNear {
		aoff[net.mvIdx[w]+1]++
	}
	for i := range dirty {
		aoff[i+1] += aoff[i]
	}
	net.mvArrive = growScratch(net.mvArrive, len(net.mvNear), false)
	arrive := net.mvArrive[:len(net.mvNear)]
	for k, v := range movers {
		lo := int32(0)
		if k > 0 {
			lo = net.mvEnds[k-1]
		}
		for _, w := range net.mvNear[lo:net.mvEnds[k]] {
			arrive[aoff[net.mvIdx[w]]] = v
			aoff[net.mvIdx[w]]++
		}
	}
	copy(aoff[1:], aoff[:len(dirty)])
	aoff[0] = 0
	arrived := func(u NodeID) []NodeID { i := net.mvIdx[u]; return arrive[aoff[i]:aoff[i+1]] }

	// A clone's first rewrite allocates its buffers, which then become
	// its rows: they need no headroom.
	exact := net.sharedRows

	// Count pass: new row sizes for dirty nodes only.
	net.mvCounts = growScratch(net.mvCounts, len(dirty), false)
	counts := net.mvCounts[:len(dirty)]
	par.For(len(dirty), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := dirty[i]
			var c int32
			if row, ok := moverRow(u); ok {
				c = int32(len(row))
			} else {
				for _, v := range net.row(u) {
					if !moved(v) {
						c++
					}
				}
				c += int32(len(arrived(u)))
			}
			counts[i] = c
		}
	})

	// Prefix-sum old and new row sizes into the scratch offsets.
	net.offScratch = growScratch(net.offScratch, n+1, exact)
	off2 := net.offScratch[:n+1]
	var total int32
	di := 0
	for i := 0; i < n; i++ {
		off2[i] = total
		if di < len(dirty) && dirty[di] == NodeID(i) {
			total += counts[di]
			di++
		} else {
			total += net.adjOff[i+1] - net.adjOff[i]
		}
	}
	off2[n] = total

	net.listScratch = growScratch(net.listScratch, int(total), exact)
	net.angScratch = growScratch(net.angScratch, int(total), exact)
	net.xScratch = growScratch(net.xScratch, int(total), exact)
	net.yScratch = growScratch(net.yScratch, int(total), exact)
	net.rotScratch = growScratch(net.rotScratch, int(total), exact)
	net.revScratch = growScratch(net.revScratch, int(total), exact)
	list2 := net.listScratch[:total]
	ang2 := net.angScratch[:total]
	x2 := net.xScratch[:total]
	y2 := net.yScratch[:total]
	rot2 := net.rotScratch[:total]
	rev2 := net.revScratch[:total]

	// Fill pass: recompute dirty rows (sorted, with bearings, packed
	// positions and rotation), copy clean spans verbatim.
	par.For(n, func(lo, hi int) {
		var buf [128]int32
		for i := lo; i < hi; i++ {
			dst, end := off2[i], off2[i+1]
			if net.mvMark[i] != gen {
				src := net.adjOff[i]
				copy(list2[dst:end], net.adjList[src:])
				copy(ang2[dst:end], net.adjAng[src:])
				copy(x2[dst:end], net.adjX[src:])
				copy(y2[dst:end], net.adjY[src:])
				copy(rot2[dst:end], net.adjRot[src:])
				continue
			}
			u := &net.Nodes[i]
			rot := rot2[dst:end]
			if !moved(u.ID) {
				old, src := net.row(u.ID), int(net.adjOff[i])
				// col maps an old column to its new one, -1 for a
				// mover's old entry; the new columns of the movers in
				// range fill the rotation from the back.
				col := buf[:0]
				if len(old) > len(buf) {
					col = make([]int32, 0, len(old))
				}
				col = col[:len(old)]
				arr := arrived(u.ID)
				k, j, back := int(dst), 0, len(rot)
				for j < len(old) || len(arr) > 0 {
					if len(arr) > 0 && (j == len(old) || arr[0] <= old[j]) {
						v := arr[0]
						arr = arr[1:]
						if j < len(old) && old[j] == v {
							col[j] = -1 // the mover's old entry
							j++
						}
						pv := net.Nodes[v].Pos
						list2[k], ang2[k], x2[k], y2[k] = v, geom.Angle(u.Pos, pv), pv.X, pv.Y
						back--
						rot[back] = int32(k) - dst
						k++
						continue
					}
					if moved(old[j]) {
						col[j] = -1 // a mover out of range now
						j++
						continue
					}
					list2[k], ang2[k], x2[k], y2[k] = old[j], net.adjAng[src+j], net.adjX[src+j], net.adjY[src+j]
					col[j] = int32(k) - dst
					j, k = j+1, k+1
				}
				h := 0
				for _, c := range net.adjRot[src : src+len(old)] {
					if col[c] >= 0 {
						rot[h] = col[c]
						h++
					}
				}
				sortRotation(rot, ang2[dst:end], h)
				continue
			}
			near, _ := moverRow(u.ID)
			row := list2[dst:end]
			copy(row, near)
			slices.Sort(row)
			net.layRow(u.ID, row, ang2[dst:end], x2[dst:end], y2[dst:end], rot)
		}
	})

	// The row counts are spent; their buffer holds deriveRev's cursors.
	net.mvCounts = growScratch(net.mvCounts, n, false)
	deriveRev(rev2, off2, list2, net.mvCounts[:n])

	net.adjOff, net.offScratch = off2, net.adjOff
	net.adjList, net.listScratch = list2, net.adjList
	net.adjAng, net.angScratch = ang2, net.adjAng
	net.adjX, net.xScratch = x2, net.adjX
	net.adjY, net.yScratch = y2, net.adjY
	net.adjRot, net.rotScratch = rot2, net.adjRot
	net.adjRev, net.revScratch = rev2, net.adjRev
	if net.sharedRows {
		net.offScratch, net.listScratch, net.angScratch, net.xScratch, net.yScratch, net.rotScratch, net.revScratch = nil, nil, nil, nil, nil, nil, nil
		net.sharedRows = false
	}
}

// growScratch returns s resliced to its full capacity, reallocating when
// the capacity is below need, with 25% headroom unless exact — the
// double-buffered CSR rewrite reuses these buffers so steady-state
// batches allocate nothing.
func growScratch[T any](s []T, need int, exact bool) []T {
	switch {
	case cap(s) >= need:
		return s[:cap(s)]
	case exact:
		return make([]T, need)
	}
	return make([]T, need+need/4+8)
}
