package topo

import (
	"math"

	"github.com/straightpath/wasn/internal/geom"
)

// grid is a uniform spatial hash over the deployment field used to answer
// "which nodes lie within distance r of p" in expected O(1) per neighbor.
// Cell size equals the radio range, so a range query only inspects the
// 3×3 cell block around the query point.
type grid struct {
	origin geom.Point
	cell   float64
	nx, ny int
	// cells[iy*nx+ix] lists the node ids whose position hashes there.
	cells [][]NodeID
}

func newGrid(field geom.Rect, cell float64, nodes []Node) *grid {
	if cell <= 0 {
		cell = 1
	}
	nx := int(math.Ceil(field.Width()/cell)) + 1
	ny := int(math.Ceil(field.Height()/cell)) + 1
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := &grid{
		origin: field.Min,
		cell:   cell,
		nx:     nx,
		ny:     ny,
		cells:  make([][]NodeID, nx*ny),
	}
	for _, n := range nodes {
		ix, iy := g.cellOf(n.Pos)
		idx := iy*g.nx + ix
		g.cells[idx] = append(g.cells[idx], n.ID)
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
	fx, fy := g.cellOf(from)
	tx, ty := g.cellOf(to)
	if fx == tx && fy == ty {
		return
	}
	fi := fy*g.nx + fx
	cell := g.cells[fi]
	for i, v := range cell {
		if v == id {
			cell[i] = cell[len(cell)-1]
			g.cells[fi] = cell[:len(cell)-1]
			break
		}
	}
	ti := ty*g.nx + tx
	g.cells[ti] = append(g.cells[ti], id)
}

// visitNear calls fn for every node id stored in cells that could contain a
// point within distance r of p. Callers must still distance-filter.
func (g *grid) visitNear(p geom.Point, r float64, fn func(NodeID)) {
	span := int(math.Ceil(r/g.cell)) + 1
	cx, cy := g.cellOf(p)
	for iy := max(cy-span, 0); iy <= min(cy+span, g.ny-1); iy++ {
		for ix := max(cx-span, 0); ix <= min(cx+span, g.nx-1); ix++ {
			for _, id := range g.cells[iy*g.nx+ix] {
				fn(id)
			}
		}
	}
}
