package safety

import (
	"math"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// zoneStartAngle returns the angle of the axis where the CCW scan of
// Q_z begins: +X for zone 1, +Y for zone 2, -X for zone 3, -Y for zone 4.
func zoneStartAngle(z geom.ZoneType) float64 {
	return float64(z-1) * math.Pi / 2
}

// scanZoneNeighbors returns the first and last alive neighbors of u
// inside Q_z(u) in the counter-clockwise ray scan of the zone (the
// paper's v1 and v2). ok is false when the zone is empty. It reads the
// row's packed positions and its bearings, which the network stores as
// geom.Angle from u.
func scanZoneNeighbors(net *topo.Network, u topo.NodeID, z geom.ZoneType) (first, last topo.NodeID, ok bool) {
	pu := net.Pos(u)
	start := zoneStartAngle(z)
	first, last = topo.NoNode, topo.NoNode
	var minDelta, maxDelta float64
	xs, ys := net.AdjacencyXY(u)
	angs := net.AdjacencyAngles(u)
	for j, v := range net.AdjacencyRow(u) {
		if !geom.InForwardingZone(pu, z, geom.Pt(xs[j], ys[j])) || !net.Alive(v) {
			continue
		}
		delta := geom.CCWDelta(start, angs[j])
		if first == topo.NoNode || delta < minDelta {
			first, minDelta = v, delta
		}
		if last == topo.NoNode || delta > maxDelta {
			last, maxDelta = v, delta
		}
	}
	return first, last, first != topo.NoNode
}

// propagateShapes computes u(1) and u(2) for every unsafe node by
// fixpoint iteration (Algorithm 2 step 3). Type-z forwarding strictly
// advances in the zone's dominance order, so the dependency graph is
// acyclic and the iteration settles in at most chain-length rounds.
func (m *Model) propagateShapes() {
	// Reset shape state; statuses may have changed since the last run.
	for i := range m.info {
		for z := 0; z < geom.NumZones; z++ {
			m.info[i].U1[z] = topo.NoNode
			m.info[i].U2[z] = topo.NoNode
		}
	}
	type slot struct {
		u      topo.NodeID
		z      geom.ZoneType
		v1, v2 topo.NodeID // zone scan endpoints; NoNode for base cases
	}
	var slots []slot
	for i := range m.info {
		u := topo.NodeID(i)
		if !m.Net.Alive(u) {
			continue
		}
		for _, z := range geom.AllZones {
			if m.Safe(u, z) {
				continue
			}
			v1, v2, ok := scanZoneNeighbors(m.Net, u, z)
			if !ok {
				// No neighbor in the zone: u(1) = u(2) = u.
				m.info[i].U1[z-1] = u
				m.info[i].U2[z-1] = u
				continue
			}
			slots = append(slots, slot{u: u, z: z, v1: v1, v2: v2})
		}
	}
	// Iterate to fixpoint. Each pass resolves at least one slot whose
	// dependencies are settled; cap defensively at N passes.
	for pass := 0; pass <= m.Net.N(); pass++ {
		changed := false
		for _, s := range slots {
			zi := s.z - 1
			in := &m.info[s.u]
			if in.U1[zi] == topo.NoNode {
				if w := m.info[s.v1].U1[zi]; w != topo.NoNode {
					in.U1[zi] = w
					changed = true
				}
			}
			if in.U2[zi] == topo.NoNode {
				if w := m.info[s.v2].U2[zi]; w != topo.NoNode {
					in.U2[zi] = w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	m.finalizeShapes()
}
