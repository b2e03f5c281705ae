package safety

import (
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// EdgeRule decides which nodes are "edge nodes" of the interest area.
// Edge nodes keep the pinned tuple (1,1,1,1) so the boundary of the
// deployment does not cascade unsafe labels inward (§3: "each edge node
// will always keep its status tuple as (1,1,1,1)").
type EdgeRule interface {
	// EdgeNodes returns a bitmap indexed by NodeID; true = edge node.
	EdgeNodes(net *topo.Network) []bool
	// Name identifies the rule in benchmarks and docs.
	Name() string
}

// ConvexHullEdge pins exactly the convex-hull nodes of the alive
// deployment — the paper's literal "hull algorithm" reading.
type ConvexHullEdge struct{}

var _ EdgeRule = ConvexHullEdge{}

// EdgeNodes implements EdgeRule.
func (ConvexHullEdge) EdgeNodes(net *topo.Network) []bool {
	out := make([]bool, net.N())
	for _, u := range hullNodes(net) {
		out[u] = true
	}
	return out
}

// hullNodes returns the alive nodes on the strict convex hull of the
// alive nodes, counter-clockwise (geom.ConvexHullIndices).
func hullNodes(net *topo.Network) []topo.NodeID {
	alive := net.AliveIDs()
	pts := make([]geom.Point, len(alive))
	for i, id := range alive {
		pts[i] = net.Pos(id)
	}
	hull := geom.ConvexHullIndices(pts)
	out := make([]topo.NodeID, len(hull))
	for k, i := range hull {
		out[k] = alive[i]
	}
	return out
}

// Name implements EdgeRule.
func (ConvexHullEdge) Name() string { return "hull" }

func (ConvexHullEdge) byNode() (ok, hull bool) { return true, true }

func (ConvexHullEdge) pinNode(_ *topo.Network, _ topo.NodeID, onHull bool) bool { return onHull }

// BorderMarginEdge pins every node within Margin of the field border —
// the robust reading of "the edge of networks" for fields whose border
// region is well populated.
type BorderMarginEdge struct {
	Margin float64
}

var _ EdgeRule = BorderMarginEdge{}

// EdgeNodes implements EdgeRule.
func (r BorderMarginEdge) EdgeNodes(net *topo.Network) []bool {
	out := make([]bool, net.N())
	for i, n := range net.Nodes {
		out[i] = n.Alive && r.pins(net, n.Pos)
	}
	return out
}

// pins reports whether a node at p is within the margin of the field
// border. The shrunken rect is built without FromCorners: a margin
// wider than half the field must invert to empty, not re-normalize.
func (r BorderMarginEdge) pins(net *topo.Network, p geom.Point) bool {
	inner := geom.Rect{
		Min: geom.Pt(net.Field.Min.X+r.Margin, net.Field.Min.Y+r.Margin),
		Max: geom.Pt(net.Field.Max.X-r.Margin, net.Field.Max.Y-r.Margin),
	}
	return inner.Empty() || !inner.ContainsStrict(p)
}

// Name implements EdgeRule.
func (r BorderMarginEdge) Name() string { return "margin" }

func (BorderMarginEdge) byNode() (ok, hull bool) { return true, false }

func (r BorderMarginEdge) pinNode(net *topo.Network, u topo.NodeID, _ bool) bool {
	return r.pins(net, net.Pos(u))
}

// UnionEdge pins a node when any member rule does.
type UnionEdge []EdgeRule

var _ EdgeRule = UnionEdge{}

// EdgeNodes implements EdgeRule.
func (u UnionEdge) EdgeNodes(net *topo.Network) []bool {
	out := make([]bool, net.N())
	for _, r := range u {
		for i, b := range r.EdgeNodes(net) {
			if b {
				out[i] = true
			}
		}
	}
	return out
}

// Name implements EdgeRule.
func (u UnionEdge) Name() string {
	name := "union("
	for i, r := range u {
		if i > 0 {
			name += "+"
		}
		name += r.Name()
	}
	return name + ")"
}

// byNode reports whether every member pins by node, and whether any
// reads the hull.
func (u UnionEdge) byNode() (ok, hull bool) {
	for _, r := range u {
		nr, isNode := r.(nodeRule)
		if !isNode {
			return false, false
		}
		o, h := nr.byNode()
		if !o {
			return false, false
		}
		hull = hull || h
	}
	return true, hull
}

func (u UnionEdge) pinNode(net *topo.Network, v topo.NodeID, onHull bool) bool {
	for _, r := range u {
		if r.(nodeRule).pinNode(net, v, onHull) {
			return true
		}
	}
	return false
}

// nodeRule is implemented by the edge rules that pin an alive node by
// the node alone and whether it is a vertex of the alive nodes' convex
// hull — the hull, the border margin and unions of them. With it a
// repair that leaves the hull's vertices as they were re-pins only the
// changed nodes (Model.repin).
type nodeRule interface {
	// byNode reports whether the rule pins by node (for a union,
	// whether every member does) and whether pinNode reads onHull.
	byNode() (ok, hull bool)
	// pinNode returns alive node u's pin, given whether u is a hull
	// vertex.
	pinNode(net *topo.Network, u topo.NodeID, onHull bool) bool
}

// DefaultEdgeRule is the experiments' default: hull nodes plus a border
// strip one radio range deep (20 m on the paper's field). The union keeps
// the labeling focused on interior holes even when the hull is sparse.
func DefaultEdgeRule() EdgeRule {
	return UnionEdge{ConvexHullEdge{}, BorderMarginEdge{Margin: 20}}
}

// repin returns the edge pins of m's network after the nodes changed
// changed liveness or position, every other node as it was — or, for
// changed nil, evaluated afresh. A rule that does not pin by node
// (nodeRule) is evaluated in full. One that does re-pins only the
// changed nodes when it never reads the hull, or when they leave the
// hull as it was (keepsHull). Otherwise the hull and every pin are
// recomputed, and m keeps the hull for the next call.
func (m *Model) repin(changed []topo.NodeID) []bool {
	net := m.Net
	r, ok := m.Edge.(nodeRule)
	var readsHull bool
	if ok {
		ok, readsHull = r.byNode()
	}
	if !ok {
		return m.Edge.EdgeNodes(net)
	}
	pin := func(u topo.NodeID, onHull bool) bool { return net.Alive(u) && r.pinNode(net, u, onHull) }
	if changed != nil && (!readsHull || m.keepsHull(changed)) {
		edge := slices.Clone(m.edge)
		for _, u := range changed {
			edge[u] = pin(u, slices.Contains(m.hull, u))
		}
		return edge
	}
	m.hull, m.hullAt = nil, nil
	if readsHull {
		m.hull = hullNodes(net)
		m.hullAt = make([]geom.Point, len(m.hull))
	}
	edge := make([]bool, net.N())
	for k, u := range m.hull {
		m.hullAt[k], edge[u] = net.Pos(u), true
	}
	for i, onHull := range edge {
		edge[i] = pin(topo.NodeID(i), onHull)
	}
	return edge
}

// hullEps is the margin by which a changed node must lie inside every
// edge of the hull (as a cross product, like geom.Orient's) for
// keepsHull: a thousand times geom.Orient's collinearity band, so that
// a node within rounding of an edge's line recomputes the hull.
const hullEps = 1e-6

// keepsHull reports whether the changed nodes leave m's hull as it was:
// every hull vertex among them is still alive where it was, and every
// other one is dead or inside the hull by more than hullEps. Removing,
// moving or adding points strictly inside a point set's convex hull
// leaves its vertices as they are.
func (m *Model) keepsHull(changed []topo.NodeID) bool {
	if len(m.hull) < 3 {
		return false
	}
	for _, u := range changed {
		alive, p := m.Net.Alive(u), m.Net.Pos(u)
		if k := slices.Index(m.hull, u); k >= 0 {
			if !alive || p != m.hullAt[k] {
				return false
			}
			continue
		}
		if !alive {
			continue
		}
		a := m.hullAt[len(m.hullAt)-1]
		for _, b := range m.hullAt {
			if b.Sub(a).Cross(p.Sub(a)) <= hullEps {
				return false
			}
			a = b
		}
	}
	return true
}
