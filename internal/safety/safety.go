package safety

import (
	"fmt"
	"slices"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
	"github.com/straightpath/wasn/internal/topo"
)

// Info is the safety state a single node stores: its own tuple plus the
// per-type shape bookkeeping (u(1), u(2)).
type Info struct {
	// Safe[z-1] is S_z(u): true = safe ("1"), false = unsafe ("0").
	Safe [geom.NumZones]bool
	// Pinned marks edge nodes of the interest area, which never change
	// status.
	Pinned bool
	// U1[z-1] / U2[z-1] are the farthest reachable nodes u(1) and u(2)
	// of the type-z unsafe area (valid only while !Safe[z-1];
	// topo.NoNode when not computed).
	U1, U2 [geom.NumZones]topo.NodeID
}

// Tuple renders the status tuple the way the paper writes it, e.g.
// "(1,0,1,1)".
func (in Info) Tuple() string {
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("(%d,%d,%d,%d)", b(in.Safe[0]), b(in.Safe[1]), b(in.Safe[2]), b(in.Safe[3]))
}

// ConstructionCost records what building the information model cost: the
// number of synchronous rounds until stabilization and the number of
// one-hop broadcast messages (one per node per status change, as in
// Algorithm 2's "broadcasting such information of a node that newly
// changes its safety status to all its neighbors").
type ConstructionCost struct {
	Rounds   int
	Messages int
}

// shapeCache is the materialized E_z(u) of one (node, zone): the
// estimate rectangle and its far corner, recomputed whenever the
// labeling changes (finalizeShapes) so queries on the routing hot path
// are plain lookups.
type shapeCache struct {
	rect geom.Rect
	far  geom.Point
	ok   bool
}

// Model is the stabilized safety information of one network.
type Model struct {
	Net  *topo.Network
	Edge EdgeRule
	Cost ConstructionCost

	info []Info
	// masks[u] packs Safe as a bitmask (bit z-1 = S_z(u)), rebuilt by
	// finalizeShapes after every (re)labeling so the routing scans test
	// safety with one byte load — see SafeMasks.
	masks []uint8
	// edge[u] caches the pinned set. For a rule that pins by node and
	// reads the hull (nodeRule), hull and hullAt are the hull edge was
	// evaluated with:
	// its vertices, counter-clockwise, and their positions. A repair
	// replaces the three, never writes them.
	edge   []bool
	hull   []topo.NodeID
	hullAt []geom.Point
	// shapes[u][z-1] caches Shape/FarCorner per (node, zone).
	shapes [][geom.NumZones]shapeCache
	// conf[u] caches ConfinementBox per node.
	conf   []geom.Rect
	confOK []bool
}

// Clone returns a copy of the model over net, a topo.Network.Clone of
// m.Net, that Repair and RepairMoved may mutate while other goroutines
// keep reading the receiver. The receiver must not be repaired
// afterwards. The edge-node set and its hull are shared, because a
// repair replaces them wholesale; the labels are copied, because a
// repair rewrites them in place; and the safety masks, shape caches and
// confinement boxes are left out, because every repair ends by
// recomputing all of them (finalizeShapes) into fresh arrays. Until its
// repair the copy answers no query.
func (m *Model) Clone(net *topo.Network) *Model {
	c := *m
	c.Net = net
	c.info = slices.Clone(m.info)
	c.masks, c.shapes, c.conf, c.confOK = nil, nil, nil, nil
	return &c
}

// Option configures Build.
type Option func(*buildConfig)

type buildConfig struct {
	edgeRule EdgeRule
}

// WithEdgeRule overrides the default edge-node rule.
func WithEdgeRule(r EdgeRule) Option {
	return func(c *buildConfig) { c.edgeRule = r }
}

// Build constructs the safety information for net: labels every node
// (synchronous rounds, Algorithm 2) and propagates the estimated shape
// information.
func Build(net *topo.Network, opts ...Option) *Model {
	cfg := buildConfig{edgeRule: DefaultEdgeRule()}
	for _, o := range opts {
		o(&cfg)
	}
	m := &Model{
		Net:  net,
		Edge: cfg.edgeRule,
		info: make([]Info, net.N()),
	}
	m.edge = m.repin(nil)
	m.reset()
	m.labelSync()
	m.propagateShapes()
	return m
}

// reset initializes every alive node safe (Definition 1 step 1), pinning
// edge nodes.
func (m *Model) reset() {
	for i := range m.info {
		in := &m.info[i]
		in.Pinned = m.edge[i] && m.Net.Alive(topo.NodeID(i))
		for z := 0; z < geom.NumZones; z++ {
			in.Safe[z] = m.Net.Alive(topo.NodeID(i))
			in.U1[z] = topo.NoNode
			in.U2[z] = topo.NoNode
		}
	}
}

// Safe reports S_z(u). Dead nodes are unsafe in every type.
func (m *Model) Safe(u topo.NodeID, z geom.ZoneType) bool {
	return m.info[u].Safe[z-1]
}

// Unsafe reports !S_z(u).
func (m *Model) Unsafe(u topo.NodeID, z geom.ZoneType) bool { return !m.Safe(u, z) }

// AnySafe reports whether u is safe in at least one type (tuple != (0,0,0,0)).
func (m *Model) AnySafe(u topo.NodeID) bool {
	for _, s := range m.info[u].Safe {
		if s {
			return true
		}
	}
	return false
}

// SafeMasks exports the per-node safety statuses as packed bitmasks:
// bit z-1 of masks[u] is S_z(u), so SafeToward collapses to one byte
// load plus a shift once the caller has the candidate's zone, and
// AnySafe to masks[u] != 0. The slice aliases model-internal storage
// kept coherent with the labeling (rebuilt after every Build / Repair,
// under the same serialization contract as every other model read) and
// must not be modified.
func (m *Model) SafeMasks() []uint8 { return m.masks }

// AllUnsafe reports the paper's (0,0,0,0) condition that triggers the
// cautious perimeter phase.
func (m *Model) AllUnsafe(u topo.NodeID) bool { return !m.AnySafe(u) }

// Pinned reports whether u is an edge node of the interest area.
func (m *Model) Pinned(u topo.NodeID) bool { return m.info[u].Pinned }

// Tuple returns the printable status tuple of u.
func (m *Model) Tuple(u topo.NodeID) string { return m.info[u].Tuple() }

// U1 returns u(1) of the type-z unsafe area at u (topo.NoNode when u is
// type-z safe).
func (m *Model) U1(u topo.NodeID, z geom.ZoneType) topo.NodeID { return m.info[u].U1[z-1] }

// U2 returns u(2), symmetric to U1.
func (m *Model) U2(u topo.NodeID, z geom.ZoneType) topo.NodeID { return m.info[u].U2[z-1] }

// SafeToward reports whether node v is safe with respect to a packet
// destined for d: S_k̄(v) where k̄ is the type of the request zone
// Z(v, d). A node that is the destination itself counts as safe.
func (m *Model) SafeToward(v topo.NodeID, d geom.Point) bool {
	pv := m.Net.Pos(v)
	if pv == d {
		return true
	}
	return m.Safe(v, geom.ZoneTypeOf(pv, d))
}

// Shape returns the estimated unsafe-area rectangle E_z(u) as seen from
// type-z unsafe node u: [xu : x_{u(1)}, yu : y_{u(2)}] (with the x/y roles
// of u(1) and u(2) swapped for the even zone types, whose CCW scan starts
// on the other axis). ok is false when u is type-z safe or the shape has
// not stabilized. The rectangle is cached per (node, zone) after every
// (re)labeling, so this is a plain lookup.
func (m *Model) Shape(u topo.NodeID, z geom.ZoneType) (geom.Rect, bool) {
	c := &m.shapes[u][z-1]
	return c.rect, c.ok
}

// computeShape derives Shape from the raw u(1)/u(2) state (the
// finalizeShapes input; Shape itself serves the cached value).
func (m *Model) computeShape(u topo.NodeID, z geom.ZoneType) (geom.Rect, bool) {
	in := m.info[u]
	if in.Safe[z-1] {
		return geom.Rect{}, false
	}
	u1 := in.U1[z-1]
	u2 := in.U2[z-1]
	if u1 == topo.NoNode || u2 == topo.NoNode {
		return geom.Rect{}, false
	}
	return shapeRect(m.Net, u, z, u1, u2), true
}

// shapeRect assembles E_z(u) from the u(1)/u(2) positions. For the odd
// zones (1: scan starts at +X; 3: at -X) the first path u(1) bounds the x
// extent and the last path u(2) the y extent; for the even zones the scan
// starts on the y axis so the roles swap.
func shapeRect(net *topo.Network, u topo.NodeID, z geom.ZoneType, u1, u2 topo.NodeID) geom.Rect {
	pu := net.Pos(u)
	p1 := net.Pos(u1)
	p2 := net.Pos(u2)
	var far geom.Point
	switch z {
	case geom.Zone1, geom.Zone3:
		far = geom.Pt(p1.X, p2.Y)
	default: // Zone2, Zone4
		far = geom.Pt(p2.X, p1.Y)
	}
	return geom.FromCorners(pu, far)
}

// FarCorner returns the corner of E_z(u) diagonally opposite u — the
// endpoint of the dividing ray of the critical/forbidden split. ok
// mirrors Shape. Served from the per-(node, zone) cache.
func (m *Model) FarCorner(u topo.NodeID, z geom.ZoneType) (geom.Point, bool) {
	c := &m.shapes[u][z-1]
	return c.far, c.ok
}

// computeFarCorner derives FarCorner from a freshly computed rect.
func computeFarCorner(pu geom.Point, r geom.Rect) geom.Point {
	// The far corner is the rect corner not equal to pu in either
	// coordinate. Because the rect was built FromCorners(pu, far), it is
	// whichever of Min/Max differs from pu per axis.
	x := r.Min.X
	if pu.X == r.Min.X {
		x = r.Max.X
	}
	y := r.Min.Y
	if pu.Y == r.Min.Y {
		y = r.Max.Y
	}
	return geom.Pt(x, y)
}

// finalizeShapes materializes the Shape/FarCorner caches and the
// per-node confinement boxes from the stabilized labeling. Called after
// every propagateShapes; the per-node work is independent and fans out
// across GOMAXPROCS.
func (m *Model) finalizeShapes() {
	n := m.Net.N()
	if m.shapes == nil {
		m.shapes = make([][geom.NumZones]shapeCache, n)
		m.conf = make([]geom.Rect, n)
		m.confOK = make([]bool, n)
		m.masks = make([]uint8, n)
	}
	// own[u] is the union of u's own estimates (ownOK: it has one).
	own, ownOK := make([]geom.Rect, n), make([]bool, n)
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var mask uint8
			for z := 0; z < geom.NumZones; z++ {
				if m.info[i].Safe[z] {
					mask |= 1 << uint(z)
				}
			}
			m.masks[i] = mask
			u := topo.NodeID(i)
			pu := m.Net.Pos(u)
			for _, z := range geom.AllZones {
				c := &m.shapes[i][z-1]
				r, ok := m.computeShape(u, z)
				if !ok {
					*c = shapeCache{}
					continue
				}
				c.rect = r
				c.far = computeFarCorner(pu, r)
				c.ok = true
			}
			own[i], ownOK[i] = m.unionShapes(geom.Rect{}, false, u)
		}
	})
	// Confinement boxes read the neighbors' fresh unions, so they need a
	// second pass. A dead node has no neighbors (Neighbors).
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := topo.NodeID(i)
			box, found := own[i], ownOK[i]
			for _, v := range m.Net.AdjacencyRow(u) {
				if !ownOK[v] || !m.Net.Alive(u) || !m.Net.Alive(v) {
					continue
				}
				if found {
					box = box.Union(own[v])
				} else {
					box, found = own[v], true
				}
			}
			if found {
				box = box.Inflate(m.Net.Radius)
			}
			m.conf[i] = box
			m.confOK[i] = found
		}
	})
}

// unionShapes folds the cached estimates of v into box.
func (m *Model) unionShapes(box geom.Rect, found bool, v topo.NodeID) (geom.Rect, bool) {
	for z := 0; z < geom.NumZones; z++ {
		c := &m.shapes[v][z]
		if !c.ok {
			continue
		}
		if !found {
			box = c.rect
			found = true
		} else {
			box = box.Union(c.rect)
		}
	}
	return box, found
}
