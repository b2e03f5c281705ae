package topo

import (
	"fmt"
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
)

// Network is the WASN graph G = (V, E): nodes with identical radio range in
// a rectangular field, edges between every pair within range. Adjacency is
// precomputed at construction; node failure (SetAlive) filters queries
// without rebuilding.
//
// # Adjacency layout
//
// The adjacency is stored in CSR (compressed sparse row) form: one flat
// backing array of neighbor ids (adjList) plus one offsets array (adjOff,
// len N+1), so the neighbors of u occupy adjList[adjOff[u]:adjOff[u+1]],
// sorted ascending. Compared with a slice-of-slices this is one
// allocation instead of N, and neighbor rows of consecutive nodes are
// contiguous in memory — the routing hot path walks them with zero
// pointer chasing.
//
// Every per-slot array is index aligned with adjList: the edge bearing
// (adjAng), the packed neighbor position (adjX/adjY), the reverse slot
// (adjRev: the slot of v→u for the slot of u→v) and the row's rotation
// (adjRot), its columns in ascending bearing order. The rotation is the
// one order every angular consumer walks — through RotationStep
// BOUNDHOLE's clockwise successors and first hops and the planar face
// steps, directly TENT and the routers' detour sweeps — so none of them
// sorts a row. A walk starts at a rotation position its caller knows
// (a back-edge's own, the one TENT found for a bearing) or finds by
// RotationSearch, so a row of successors costs O(deg), not O(deg²).
// Substrates keep their own per-slot state in SlotTables, whose entries
// are row-relative, so that a clean row survives a SetPositions shift
// verbatim (SlotTable.Relayout).
//
// # Build
//
// NewNetwork enumerates the in-range pairs once: one 3×3 grid query per
// node (see grid) gives its row, which it sorts; the rows are then
// placed at their prefix-summed offsets and laid out (layRow), and the
// reverse slots derived in one cursor pass (deriveRev).
//
// # Aliasing and ownership
//
// Neighbors returns a subslice of the internal CSR backing array whenever
// it can (always while no node has failed, and for rows untouched by
// failures afterwards). Callers MUST treat the returned slice as
// immutable and MUST NOT retain it across a SetAlive or SetPositions
// call: position repair double-buffers the CSR backing arrays and a swap
// leaves retained row slices pointing at recycled scratch. Only rows
// containing a dead neighbor are filtered into a freshly allocated copy.
//
// A Network is safe for concurrent reads after construction as long as no
// SetAlive or SetPositions calls race with them; the experiment harness
// builds one network per goroutine, and the serve package never mutates
// a network readers can reach: it mutates a Clone and publishes that.
type Network struct {
	Nodes  []Node
	Radius float64
	Field  geom.Rect

	// CSR adjacency: neighbors of u are adjList[adjOff[u]:adjOff[u+1]].
	adjOff  []int32
	adjList []NodeID
	// adjAng[i] is the edge bearing atan2-style (geom.Angle) from the
	// row owner to adjList[i], precomputed so angular sweeps (BOUNDHOLE
	// walks, the routers' ray rotations, the TENT rule) never call atan2
	// on the hot path.
	adjAng []float64
	// adjX/adjY[i] are the position of adjList[i], packed per edge slot
	// in structure-of-arrays form: a candidate scan reads neighbor
	// coordinates with two sequential float64 loads instead of chasing
	// Nodes[v].Pos through the node table. SetPositions keeps them
	// consistent by rewriting exactly the rows whose geometry changed.
	adjX, adjY []float64
	// adjRot[adjOff[u]:adjOff[u+1]] is u's rotation: the row's column
	// indices (row-relative) in ascending bearing order, equal bearings
	// in column order. Columns are row-relative, so a row whose geometry
	// did not change keeps its rotation verbatim when the CSR shifts.
	adjRot []int32
	// adjRev[s] is the slot of the reverse edge: for s the slot of u→v,
	// the slot of v→u in v's row.
	adjRev []int32

	// aliveBits is the node liveness as a bitset (bit u of word u/64),
	// maintained by SetAlive. Scans over static CSR rows test a dead
	// candidate with one load+mask instead of touching Nodes[v].Alive.
	aliveBits []uint64

	// dead counts failed nodes network-wide. While it is zero Neighbors
	// and Degree take the O(1) alias path without scanning liveness.
	dead int

	// grid is the spatial hash built during construction, retained and
	// maintained incrementally by SetPositions so position repair can
	// re-query in-range sets without rehashing the whole node table.
	grid *grid

	// Move scratch (see SetPositions): generation-stamped dirty and
	// mover marks and double-buffered CSR backing arrays, so steady-state
	// drift batches rewrite adjacency without reallocating.
	mvGen       uint32
	mvMark      []uint32
	mvMoved     []uint32
	mvIdx       []int32 // a dirty node's index in mvDirty
	mvArrive    []NodeID
	mvArriveOff []int32
	mvDirty     []NodeID
	mvMovers    []NodeID
	mvNear      []NodeID // the movers' new rows, unsorted, ending at mvEnds
	mvEnds      []int32
	mvCounts    []int32
	offScratch  []int32
	listScratch []NodeID
	angScratch  []float64
	xScratch    []float64
	yScratch    []float64
	rotScratch  []int32
	revScratch  []int32
	// sharedRows marks CSR rows a Clone shares with the network it was
	// cloned from: the next rewrite must not keep them as scratch.
	sharedRows bool
}

// NewNetwork builds the unit-disk graph over the given positions.
// Positions outside the field are accepted (the field only scopes grid
// hashing and deployment); radius must be positive.
func NewNetwork(positions []geom.Point, radius float64, field geom.Rect) (*Network, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("topo: radius must be positive, got %v", radius)
	}
	nodes := make([]Node, len(positions))
	for i, p := range positions {
		nodes[i] = Node{ID: NodeID(i), Pos: p, Alive: true}
	}
	net := &Network{
		Nodes:  nodes,
		Radius: radius,
		Field:  field,
	}
	net.buildAdjacency()
	return net, nil
}

// buildAdjacency computes the CSR adjacency from one enumeration of
// the in-range pairs, in two parallel passes over node ranges: the first
// queries the spatial grid once per node and sorts the row into a
// per-worker buffer, the second places each row at its prefix-summed
// offset and lays out its bearings, packed positions and rotation
// (layRow). Both passes touch disjoint index ranges per worker, so they
// fan out across GOMAXPROCS via par.For.
func (net *Network) buildAdjacency() {
	n := len(net.Nodes)
	net.grid = newGrid(net.Field, net.Radius, net.Nodes)
	r2 := net.Radius * net.Radius

	// Pass 1: every node's sorted row, from one grid query each. A
	// worker's rows share its buffer, sized for a mean degree of 32; one
	// that outgrows it leaves its earlier rows on the old array, which
	// they keep alive.
	rows := make([][]NodeID, n)
	par.For(n, func(lo, hi int) {
		buf := make([]NodeID, 0, 32*(hi-lo))
		for i := lo; i < hi; i++ {
			start := len(buf)
			buf = net.grid.appendInRange(buf, net.Nodes, NodeID(i), r2)
			slices.Sort(buf[start:])
			rows[i] = buf[start:len(buf):len(buf)]
		}
	})

	// Prefix-sum the row lengths into row offsets.
	net.adjOff = make([]int32, n+1)
	var total int32
	for i, row := range rows {
		net.adjOff[i] = total
		total += int32(len(row))
	}
	net.adjOff[n] = total
	net.adjList = make([]NodeID, total)
	net.adjAng = make([]float64, total)
	net.adjX = make([]float64, total)
	net.adjY = make([]float64, total)
	net.adjRot = make([]int32, total)

	// Pass 2: place each row and lay it out.
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := net.adjOff[i], net.adjOff[i+1]
			copy(net.adjList[a:b], rows[i])
			net.layRow(NodeID(i), net.adjList[a:b], net.adjAng[a:b], net.adjX[a:b], net.adjY[a:b], net.adjRot[a:b])
		}
	})
	net.adjRev = make([]int32, total)
	deriveRev(net.adjRev, net.adjOff, net.adjList, make([]int32, n))

	net.aliveBits = make([]uint64, (n+63)/64)
	for i, nd := range net.Nodes {
		if nd.Alive {
			net.aliveBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// layRow lays out a fresh row of u from its sorted neighbor ids: the
// bearings, the packed neighbor positions and the rotation. The rotation
// is a bucket sort on bearing: the columns are distributed, in column
// order, over rotBuckets equal arcs, which leaves only the few pairs
// sharing an arc out of (bearing, column) order for sortRotation to
// swap — linear in the row on average, where a comparison sort of ~24
// columns costs twice sortRotation alone.
func (net *Network) layRow(u NodeID, row []NodeID, ang, xs, ys []float64, rot []int32) {
	up := net.Nodes[u].Pos
	var ends [rotBuckets + 1]int32
	for j, v := range row {
		pv := net.Nodes[v].Pos
		ang[j], xs[j], ys[j] = geom.Angle(up, pv), pv.X, pv.Y
		ends[rotBucket(ang[j])+1]++
	}
	for k := 1; k < len(ends); k++ {
		ends[k] += ends[k-1]
	}
	for j, a := range ang[:len(row)] {
		k := rotBucket(a)
		rot[ends[k]] = int32(j)
		ends[k]++
	}
	sortRotation(rot, ang, 0)
}

// rotBuckets is the number of arcs layRow's bucket pass divides the
// turn into.
const rotBuckets = 64

// rotBucket returns the arc of bearing a in [0, 2π), non-decreasing in a.
func rotBucket(a float64) int { return min(int(a*(rotBuckets/geom.TwoPi)), rotBuckets-1) }

// Clone returns a copy of the network that SetAlive and SetPositions
// may mutate while other goroutines keep reading the receiver. The
// receiver must not be mutated afterwards. Ownership of its parts:
//
//   - shared: Radius, Field and the CSR rows, rotations and reverse
//     slots included.
//     SetPositions never writes a row in place — it writes fresh
//     arrays and swaps them in — and never reuses shared rows as
//     scratch;
//   - copied: Nodes, the liveness bitset and the grid cells, which
//     mutations write in place;
//   - moved: the move marks, dirty and mover lists, the movers' rows
//     and the row counts, only a mutation reads;
//   - dropped: the double-buffered CSR scratch, which may still back
//     rows an earlier clone is being read through.
func (net *Network) Clone() *Network {
	c := *net
	c.Nodes = slices.Clone(net.Nodes)
	c.aliveBits = slices.Clone(net.aliveBits)
	c.grid = net.grid.clone()
	c.offScratch, c.listScratch, c.angScratch, c.xScratch, c.yScratch, c.rotScratch, c.revScratch = nil, nil, nil, nil, nil, nil, nil
	c.sharedRows = true
	return &c
}

// N returns the number of nodes (alive or not).
func (net *Network) N() int { return len(net.Nodes) }

// Pos returns the location L(u) of node u.
func (net *Network) Pos(u NodeID) geom.Point { return net.Nodes[u].Pos }

// Alive reports whether u is alive.
func (net *Network) Alive(u NodeID) bool { return net.Nodes[u].Alive }

// SetAlive marks node u alive or failed. Failed nodes disappear from
// Neighbors and Degree without mutating the precomputed adjacency.
func (net *Network) SetAlive(u NodeID, alive bool) {
	if net.Nodes[u].Alive == alive {
		return
	}
	net.Nodes[u].Alive = alive
	if alive {
		net.aliveBits[u>>6] |= 1 << (uint(u) & 63)
		net.dead--
	} else {
		net.aliveBits[u>>6] &^= 1 << (uint(u) & 63)
		net.dead++
	}
}

// DeadCount returns the number of failed nodes.
func (net *Network) DeadCount() int { return net.dead }

// row returns the full static CSR row of u (alive and dead neighbors).
func (net *Network) row(u NodeID) []NodeID {
	return net.adjList[net.adjOff[u]:net.adjOff[u+1]]
}

// AdjacencyRow returns the static CSR neighbor row of u — every
// neighbor, alive or dead, sorted ascending. Callers doing angular
// sweeps iterate it together with AdjacencyAngles (the two are index
// aligned) and skip dead entries themselves; DeadCount()==0 means no
// liveness check is needed. The slice aliases internal storage and must
// not be modified.
func (net *Network) AdjacencyRow(u NodeID) []NodeID { return net.row(u) }

// AdjacencyAngles returns the precomputed edge bearings (geom.Angle
// from u to each neighbor) aligned index-for-index with AdjacencyRow(u).
// The slice aliases internal storage and must not be modified.
func (net *Network) AdjacencyAngles(u NodeID) []float64 {
	return net.adjAng[net.adjOff[u]:net.adjOff[u+1]]
}

// AdjacencyXY returns the packed neighbor positions of u's static CSR
// row, index aligned with AdjacencyRow(u): xs[j]/ys[j] is the position
// of the j-th neighbor. The structure-of-arrays layout lets candidate
// scans gather coordinates with sequential loads instead of per-node
// pointer chasing. Both slices alias internal storage and must not be
// modified.
func (net *Network) AdjacencyXY(u NodeID) (xs, ys []float64) {
	return net.adjX[net.adjOff[u]:net.adjOff[u+1]], net.adjY[net.adjOff[u]:net.adjOff[u+1]]
}

// AdjacencyRotation returns u's rotation: the columns of AdjacencyRow(u)
// in ascending bearing order (AdjacencyAngles), equal bearings in
// column order. Walking it forward sweeps counter-clockwise, backward
// clockwise; dead neighbors stay in it, as in the row. The slice aliases
// internal storage and must not be modified.
func (net *Network) AdjacencyRotation(u NodeID) []int32 {
	return net.adjRot[net.adjOff[u]:net.adjOff[u+1]]
}

// RotationSearch returns where the bearing from falls in u's rotation:
// the first position whose bearing is at or past it, or the row length
// when none is. It is the start position RotationStep needs for a
// bearing no caller knows the position of.
func (net *Network) RotationSearch(u NodeID, from float64) int {
	off := int(net.adjOff[u])
	angs, rot := net.adjAng[off:net.adjOff[u+1]], net.adjRot[off:net.adjOff[u+1]]
	p := 0
	for hi := len(rot); p < hi; {
		if m := int(uint(p+hi) >> 1); angs[rot[m]] < from {
			p = m + 1
		} else {
			hi = m
		}
	}
	return p
}

// RotationStep returns the column of u's neighbor first met rotating
// from the bearing from — counter-clockwise when ccw, clockwise
// otherwise — among those that are alive and whose column keep admits
// (keep is index aligned with the row; nil admits every column); -1
// when none qualifies. Deltas under 1e-12 count as a full turn, so a
// neighbor at the bearing itself comes last, and among equal deltas the
// lowest column wins. BOUNDHOLE's sweeps (keep masks the back-edge out)
// and the planar face steps (keep is the row's planar mask) are this
// one walk.
//
// The walk starts at rotation position p, which must split the rotation
// at the bearing: every bearing before p at most from, every bearing
// from p on at least from (RotationSearch finds the first such p; the
// position of a column at bearing from is one too). It meets the columns
// in order of their delta, non-decreasing up to rounding at the 0/2π
// seam, which the stop margin absorbs: it stops at the first column,
// qualifying or not, whose raw delta passes the best. Two deltas come
// out of order, both at or near a full turn: a clockwise walk's first,
// which the rest can only beat, and a raw delta under 1e-12, which
// counts as a full turn and so can beat only a best that no raw delta
// passes.
func (net *Network) RotationStep(u NodeID, p int, from float64, ccw bool, keep []bool) int32 {
	off := int(net.adjOff[u])
	row := net.adjList[off:net.adjOff[u+1]]
	angs := net.adjAng[off : off+len(row)]
	rot := net.adjRot[off : off+len(row)]
	dir := 1
	if !ccw {
		dir = -1
	}
	best, bestDelta := int32(-1), geom.TwoPi+1
	for range rot {
		if p < 0 {
			p += len(rot)
		} else if p == len(rot) {
			p = 0
		}
		k := rot[p]
		p += dir
		raw := from - angs[k]
		if ccw {
			raw = -raw
		}
		if raw < 0 {
			raw += geom.TwoPi
		} else if raw >= geom.TwoPi {
			raw = 0
		}
		if raw > bestDelta+1e-9 {
			break
		}
		if keep != nil && !keep[k] {
			continue
		}
		if v := row[k]; net.aliveBits[v>>6]&(1<<(uint(v)&63)) == 0 {
			continue
		}
		delta := raw
		if delta < 1e-12 {
			delta = geom.TwoPi
		}
		if delta < bestDelta || delta == bestDelta && k < best {
			best, bestDelta = k, delta
		}
	}
	return best
}

// sortRotation sorts a row's columns by (bearing, column) in place,
// given that rot[:sorted] already is. It is an insertion sort: the
// position repair hands it rotations that are sorted but for a few
// appended columns, which it places in O(deg) each. Fresh rows sort
// theirs in layRow.
func sortRotation(rot []int32, angs []float64, sorted int) {
	for i := max(sorted, 1); i < len(rot); i++ {
		c, a := rot[i], angs[rot[i]]
		j := i
		for ; j > 0 && (angs[rot[j-1]] > a || angs[rot[j-1]] == a && rot[j-1] > c); j-- {
			rot[j] = rot[j-1]
		}
		rot[j] = c
	}
}

// AliveBits returns the node-liveness bitset: bit u%64 of word u/64 is
// set while node u is alive. Together with AdjacencyRow it lets scans
// skip dead candidates with one load+mask; DeadCount()==0 means every
// bit of every valid node is set and the test can be skipped entirely.
// The slice aliases internal storage, is maintained by SetAlive, and
// must not be modified.
func (net *Network) AliveBits() []uint64 { return net.aliveBits }

// AdjOffset returns the global CSR slot index of the first edge of u's
// row: AdjacencyRow(u)[j] occupies slot AdjOffset(u)+j. Callers keeping
// per-edge state in AdjSlots()-length arrays use it to address a row.
func (net *Network) AdjOffset(u NodeID) int { return int(net.adjOff[u]) }

// AdjSlots returns the number of directed CSR edge slots (the length of
// the flat adjacency array). Together with AdjOffset it lets callers
// keep O(1)-clearable per-edge state in flat arrays instead of maps —
// BOUNDHOLE keeps its orbit labels this way, and SlotTable its
// per-slot entries.
func (net *Network) AdjSlots() int { return len(net.adjList) }

// AdjHead returns the neighbor of the directed edge in CSR slot s: the
// head of the edge, AdjacencyRow(u)[s-AdjOffset(u)] for its tail u.
func (net *Network) AdjHead(s int32) NodeID { return net.adjList[s] }

// AdjReverse returns the slot of the reverse of the directed edge in
// slot s: for s the slot of u→v, the slot of v→u.
func (net *Network) AdjReverse(s int32) int32 { return net.adjRev[s] }

// deriveRev derives the reverse slots of the layout (off, list) from its
// rows alone, using cur (n entries) as scratch. Rows are sorted
// ascending and the adjacency is symmetric, so scanning the rows in
// order, the k-th row that lists v is v's k-th neighbor: one pass with
// a cursor per row, no search.
func deriveRev(rev, off []int32, list []NodeID, cur []int32) {
	copy(cur, off)
	for u := range cur {
		for s := off[u]; s < off[u+1]; s++ {
			v := list[s]
			rev[s] = cur[v]
			cur[v]++
		}
	}
}

// Neighbors returns N(u): the alive neighbors of u. When u itself is dead
// it has no neighbors. The returned slice must not be modified and must
// not be retained across SetAlive: while no node has failed it aliases
// the internal CSR row (O(1), the hot path), after failures rows with a
// dead member are returned as fresh filtered copies.
func (net *Network) Neighbors(u NodeID) []NodeID {
	all := net.row(u)
	if net.dead == 0 {
		return all
	}
	if !net.Nodes[u].Alive {
		return nil
	}
	clean := true
	for _, v := range all {
		if !net.Nodes[v].Alive {
			clean = false
			break
		}
	}
	if clean {
		return all
	}
	out := make([]NodeID, 0, len(all))
	for _, v := range all {
		if net.Nodes[v].Alive {
			out = append(out, v)
		}
	}
	return out
}

// Degree returns |N(u)| over alive neighbors without materializing a
// neighbor slice.
func (net *Network) Degree(u NodeID) int {
	all := net.row(u)
	if net.dead == 0 {
		return len(all)
	}
	if !net.Nodes[u].Alive {
		return 0
	}
	deg := 0
	for _, v := range all {
		if net.Nodes[v].Alive {
			deg++
		}
	}
	return deg
}

// Dist returns the Euclidean distance between nodes u and v.
func (net *Network) Dist(u, v NodeID) float64 {
	return geom.Dist(net.Nodes[u].Pos, net.Nodes[v].Pos)
}

// InRange reports whether u and v are within radio range (u != v).
func (net *Network) InRange(u, v NodeID) bool {
	if u == v {
		return false
	}
	return geom.Dist2(net.Nodes[u].Pos, net.Nodes[v].Pos) <= net.Radius*net.Radius
}

// AliveIDs returns the ids of all alive nodes.
func (net *Network) AliveIDs() []NodeID {
	out := make([]NodeID, 0, len(net.Nodes))
	for _, n := range net.Nodes {
		if n.Alive {
			out = append(out, n.ID)
		}
	}
	return out
}

// Positions returns a copy of all node positions, indexed by NodeID.
func (net *Network) Positions() []geom.Point {
	out := make([]geom.Point, len(net.Nodes))
	for i, n := range net.Nodes {
		out[i] = n.Pos
	}
	return out
}

// PathLength returns the total Euclidean length of the node path.
func (net *Network) PathLength(path []NodeID) float64 {
	var total float64
	for i := 1; i < len(path); i++ {
		total += net.Dist(path[i-1], path[i])
	}
	return total
}

// EdgeCount returns |E| over alive nodes. Allocation-free.
func (net *Network) EdgeCount() int {
	total := 0
	for _, n := range net.Nodes {
		if !n.Alive {
			continue
		}
		total += net.Degree(n.ID)
	}
	return total / 2
}

// AvgDegree returns the mean degree over alive nodes (0 for an empty
// net). Allocation-free.
func (net *Network) AvgDegree() float64 {
	alive := 0
	total := 0
	for _, n := range net.Nodes {
		if !n.Alive {
			continue
		}
		alive++
		total += net.Degree(n.ID)
	}
	if alive == 0 {
		return 0
	}
	return float64(total) / float64(alive)
}
