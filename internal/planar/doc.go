// Package planar derives planar subgraphs of the unit-disk network and
// walks their faces. This is the substrate behind the "right-hand rule"
// perimeter routing of Bose–Morin–Stojmenović (the paper's reference [2])
// and of GPSR, which this repository ships as an additional baseline.
//
// Two classical localized planarizations are provided: the Gabriel graph
// (edge uv survives iff the disk with diameter uv is empty) and the
// relative neighborhood graph (edge uv survives iff no witness w is closer
// to both u and v than they are to each other). Both preserve connectivity
// of the unit-disk graph and are computable from one-hop neighbor
// information only.
//
// # The mask and the face step
//
// A [Graph] is a keep-mask over the network's CSR edge slots
// (topo.SlotTable): slot u→v is kept iff u and v are alive and the
// witness test keeps uv. It holds no rows of its own. A face step
// ([Graph.FaceStep]) is the network's one rotation step
// (topo.Network.RotationStep) over the mask: from the bearing of the
// in-edge u→prev, or of a reference direction on entry, the first kept
// neighbor counter-clockwise (right-hand rule) or clockwise (left-hand
// rule), the in-edge itself last. The walk meets the columns in order
// of their delta from the bearing and stops past the best, so it reads
// the kept slots near the bearing and the unkept ones between them, and
// never sorts a row. The sorted rows and linear scans it replaced are
// the oracle of TestFaceStepMatchesSortedRows. A face walk hands the
// step the in-edge as a slot, the reverse (topo.Network.AdjReverse) of
// the hop it arrived over, and gets the next hop back as a slot, so
// GPSR and SLGF2 carry it from hop to hop instead of searching the row
// for prev ([Graph.EdgeSlot] does that after a non-face hop).
//
// The witness tests read the static row, its packed coordinates and the
// liveness bitset, so a row with a dead neighbor is tested in place.
//
// # Lifecycle: build once, repair on failure and on moves
//
// [Build] computes every node's mask row in parallel across GOMAXPROCS.
// Both planarization rules are witness-local — any witness for edge uv
// lies within radio range of u and of v — so:
//
//   - a liveness change at node x can only affect the rows of x and of
//     x's static neighbors; [Graph.Repair] recomputes exactly those rows
//     in place after failures or revivals;
//   - a move batch can only affect the rows of the geometric dirty set
//     topo.Network.SetPositions returns; [Graph.RepairRows] lays the
//     mask out against the new CSR (topo.SlotTable.Relayout shifts the
//     clean rows, whose entries do not change) and rebuilds the dirty
//     rows.
//
// Either way the graph is identical to a from-scratch Build on the
// mutated network, and routers holding it observe the repair without
// being rebuilt. [Graph.Clone] copies the mask, so the serving layer
// repairs a clone while readers keep the published version. Every
// mutation reaches these repairs through core.RepairSubstrates and
// core.RepairSubstratesMoved.
package planar
