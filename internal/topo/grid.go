package topo

import (
	"math"

	"github.com/straightpath/wasn/internal/geom"
)

// grid is a uniform spatial hash over the deployment field used to answer
// "which nodes lie within radio range of p" in expected O(1) per neighbor.
//
// Cells are a hair wider than the range, r·(1+1e-9), so a range query
// inspects only the 3×3 cell block around the query point, and it is
// exact: a pair that passes Dist2 ≤ r² is at most r·(1+1e-15) apart on
// either axis, and the cell index — the clamped integer part of the
// offset over the cell width, whose float error is a few ulps of a
// quotient below the cell count — then differs by at most one along
// each axis, since r over the cell width is 1−1e-9. The conversion
// truncates toward zero, which differs from the floor only below zero,
// where the clamp sends both to the first cell; clamping is monotone,
// so nodes outside the field (accepted by NewNetwork and SetPositions)
// hash into the edge cells and stay found.
type grid struct {
	origin geom.Point
	cell   float64
	nx, ny int
	// cells[iy*nx+ix] lists the node ids whose position hashes there.
	cells [][]NodeID
}

// newGrid hashes nodes into cells just wider than the radio range r,
// laid out like clone's.
func newGrid(field geom.Rect, r float64, nodes []Node) *grid {
	cell := r * (1 + 1e-9)
	nx := max(int(math.Ceil(field.Width()/cell))+1, 1)
	ny := max(int(math.Ceil(field.Height()/cell))+1, 1)
	g := &grid{
		origin: field.Min,
		cell:   cell,
		nx:     nx,
		ny:     ny,
		cells:  make([][]NodeID, nx*ny),
	}
	ends := make([]int32, len(g.cells)+1)
	for _, n := range nodes {
		ends[g.index(n.Pos)+1]++
	}
	for i := range g.cells {
		ends[i+1] += ends[i]
	}
	flat := make([]NodeID, len(nodes))
	for i := range g.cells {
		g.cells[i] = flat[ends[i]:ends[i]:ends[i+1]]
	}
	for _, n := range nodes {
		i := g.index(n.Pos)
		g.cells[i] = append(g.cells[i], n.ID)
	}
	return g
}

// clone copies the cells into one flat array, each capped at its length
// so a move's append reallocates the cell rather than overrun the next.
func (g *grid) clone() *grid {
	c := *g
	c.cells = make([][]NodeID, len(g.cells))
	var total int
	for _, cell := range g.cells {
		total += len(cell)
	}
	flat := make([]NodeID, 0, total)
	for i, cell := range g.cells {
		start := len(flat)
		flat = append(flat, cell...)
		c.cells[i] = flat[start:len(flat):len(flat)]
	}
	return &c
}

// index returns the index in cells of the cell p hashes to.
func (g *grid) index(p geom.Point) int {
	ix, iy := g.cellOf(p)
	return iy*g.nx + ix
}

func (g *grid) cellOf(p geom.Point) (ix, iy int) {
	ix = int((p.X - g.origin.X) / g.cell)
	iy = int((p.Y - g.origin.Y) / g.cell)
	ix = min(max(ix, 0), g.nx-1)
	iy = min(max(iy, 0), g.ny-1)
	return ix, iy
}

// move rehashes node id from its old position's cell to its new one.
// Within-cell moves are free; cross-cell moves swap-remove from the old
// cell (order inside a cell is irrelevant — every query distance-filters)
// and append to the new, so a retained grid tracks position churn in O(1)
// amortized per move.
func (g *grid) move(id NodeID, from, to geom.Point) {
	fi, ti := g.index(from), g.index(to)
	if fi == ti {
		return
	}
	cell := g.cells[fi]
	for i, v := range cell {
		if v == id {
			cell[i] = cell[len(cell)-1]
			g.cells[fi] = cell[:len(cell)-1]
			break
		}
	}
	g.cells[ti] = append(g.cells[ti], id)
}

// appendInRange appends to dst, in cell order, every node other than u
// within range of u: Dist2(L(u), L(v)) ≤ r2, for r2 the square of the
// range the grid was built for. It reads the 3×3 block around u's cell.
func (g *grid) appendInRange(dst []NodeID, nodes []Node, u NodeID, r2 float64) []NodeID {
	p := nodes[u].Pos
	cx, cy := g.cellOf(p)
	for iy := max(cy-1, 0); iy <= min(cy+1, g.ny-1); iy++ {
		for _, cell := range g.cells[iy*g.nx+max(cx-1, 0) : iy*g.nx+min(cx+1, g.nx-1)+1] {
			for _, v := range cell {
				if v != u && geom.Dist2(p, nodes[v].Pos) <= r2 {
					dst = append(dst, v)
				}
			}
		}
	}
	return dst
}
