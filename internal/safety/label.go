package safety

import (
	"math/rand/v2"
	"sync/atomic"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/par"
	"github.com/straightpath/wasn/internal/topo"
)

// lower applies the Definition 1 condition at u: it clears every type-z
// status of u that has no type-z safe neighbor inside Q_z(u), reading
// the neighbors' statuses from info (m.info itself, or a snapshot of it
// taken when u's own statuses were the same), and reports whether it
// cleared any. u must be alive. One pass over the alive neighbors in
// the static row serves all four zones: a neighbor at u's own position
// lies in no forwarding zone and any other in exactly one
// (geom.InForwardingZone).
func (m *Model) lower(u topo.NodeID, info []Info) bool {
	in := &m.info[u]
	var want, has uint8
	for z, safe := range in.Safe {
		if safe {
			want |= 1 << z
		}
	}
	pu := m.Net.Pos(u)
	for _, v := range m.Net.AdjacencyRow(u) {
		if has == want {
			break
		}
		if !m.Net.Alive(v) {
			continue
		}
		pv := m.Net.Pos(v)
		z := geom.ZoneTypeOf(pu, pv) - 1
		if bit := uint8(1) << z; want&bit != 0 && pv != pu && info[v].Safe[z] {
			has |= bit
		}
	}
	for z := range in.Safe {
		in.Safe[z] = has&(1<<z) != 0
	}
	return has != want
}

// labelSync runs Definition 1 / Algorithm 2 as the paper states it: a
// synchronous round-based system where every node re-evaluates its four
// statuses against the previous round's snapshot, and every status change
// is broadcast to all neighbors. Rounds and messages are recorded in
// m.Cost. The iteration is monotone (statuses only flip safe→unsafe), so
// it stabilizes after at most 4·|V| changes.
//
// Within one round every node's re-evaluation reads only the snapshot
// and writes only its own Info, so the rounds fan out across GOMAXPROCS
// — the synchronous semantics (and therefore the resulting labels,
// round count, and message count) are exactly those of the serial loop.
func (m *Model) labelSync() {
	m.Cost = ConstructionCost{}
	prev := make([]Info, len(m.info))
	for {
		// Snapshot of the previous round.
		copy(prev, m.info)

		var changed, messages atomic.Int64
		par.For(len(m.info), func(lo, hi int) {
			localChanged, localMsgs := 0, 0
			for i := lo; i < hi; i++ {
				u := topo.NodeID(i)
				if !m.Net.Alive(u) || m.info[i].Pinned {
					continue
				}
				if m.lower(u, prev) {
					localChanged++
					localMsgs += m.Net.Degree(u)
				}
			}
			changed.Add(int64(localChanged))
			messages.Add(int64(localMsgs))
		})
		m.Cost.Messages += int(messages.Load())
		if changed.Load() == 0 {
			break
		}
		m.Cost.Rounds++
	}
}

// labelWorklist converges to the same fixpoint as labelSync using an
// event-driven worklist — the "asynchronous round based system" extension
// the paper mentions. order, when non-nil, shuffles processing to exercise
// order independence; it does not affect the result.
func (m *Model) labelWorklist(rng *rand.Rand) {
	queue := make([]topo.NodeID, 0, m.Net.N())
	inQueue := make([]bool, m.Net.N())
	push := func(u topo.NodeID) {
		if !inQueue[u] && m.Net.Alive(u) && !m.info[u].Pinned {
			inQueue[u] = true
			queue = append(queue, u)
		}
	}
	for i := range m.info {
		push(topo.NodeID(i))
	}
	for len(queue) > 0 {
		var u topo.NodeID
		if rng != nil {
			k := rng.IntN(len(queue))
			u = queue[k]
			queue[k] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		} else {
			u = queue[0]
			queue = queue[1:]
		}
		inQueue[u] = false
		if m.lower(u, m.info) {
			m.Cost.Messages += m.Net.Degree(u)
			for _, v := range m.Net.Neighbors(u) {
				push(v)
			}
		}
	}
}

// BuildAsync builds the model with the asynchronous (worklist) labeling,
// processing nodes in seeded-random order. The resulting statuses always
// equal Build's: the fixpoint is unique.
func BuildAsync(net *topo.Network, seed uint64, opts ...Option) *Model {
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
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	m.labelWorklist(rng)
	m.propagateShapes()
	return m
}

// OnNodeFailure incrementally repairs the model after the given nodes
// fail (callers must have already called net.SetAlive(id, false)). It is
// the failure-only entry point kept for compatibility; Repair is the
// general one (and what OnNodeFailure now runs).
func (m *Model) OnNodeFailure(failed ...topo.NodeID) { m.Repair(failed...) }

// Repair incrementally re-derives the model after the liveness of the
// given nodes changed (topo.Network.SetAlive already applied). The
// result is always exactly the from-scratch labeling of the mutated
// network; only the amount of work depends on the kind of change.
//
// Failures are the fast path. They only flip statuses safe→unsafe, so
// running the monotone worklist from the current state — seeded with
// just the failed nodes' static neighborhoods, the only nodes whose
// Definition 1 condition changed — converges to exactly the
// from-scratch fixpoint. Two rare events break that monotonicity and
// force a full relabel instead: a revival (an unsafe node may need to
// flip back to safe), and a failure exposing a new interest-area edge
// node that is not already fully safe (a dead hull vertex can uncover
// interior nodes, and a newly pinned node must present the (1,1,1,1)
// tuple the paper prescribes for edge nodes — a safe→safe pin is free,
// an unsafe→pinned flip is not expressible by the monotone worklist).
func (m *Model) Repair(changed ...topo.NodeID) {
	newEdge := m.repin(changed)
	full := false
	for _, x := range changed {
		if m.Net.Alive(x) { // revival: labels may need to flip unsafe→safe
			full = true
			break
		}
	}
	if !full {
		for i, e := range newEdge {
			if e && !m.edge[i] && m.Net.Alive(topo.NodeID(i)) && !m.fullySafe(i) {
				full = true // newly exposed edge node was unsafe
				break
			}
		}
	}
	m.edge = newEdge
	if full {
		m.reset()
		m.labelWorklist(nil)
		m.propagateShapes()
		return
	}

	// Failure-only repair. Update pins and mark the dead unsafe; seed
	// the worklist from the failed nodes' static neighbor rows (the CSR
	// adjacency retains dead nodes' rows, so no geometric scan is
	// needed). A previously pinned node that lost its pin — impossible
	// under the default hull/border rules, but a custom EdgeRule may
	// shrink — must re-evaluate too.
	seeds := make([]topo.NodeID, 0, len(changed)*8)
	inSeeds := make(map[topo.NodeID]bool, len(changed)*8)
	push := func(v topo.NodeID) {
		if m.Net.Alive(v) && !inSeeds[v] {
			inSeeds[v] = true
			seeds = append(seeds, v)
		}
	}
	for i := range m.info {
		u := topo.NodeID(i)
		alive := m.Net.Alive(u)
		wasPinned := m.info[i].Pinned
		m.info[i].Pinned = m.edge[i] && alive
		if !alive {
			for z := 0; z < geom.NumZones; z++ {
				m.info[i].Safe[z] = false
			}
		} else if wasPinned && !m.info[i].Pinned {
			push(u)
		}
	}
	for _, f := range changed {
		for _, v := range m.Net.AdjacencyRow(f) {
			push(v)
		}
	}
	m.repairFrom(seeds)
	m.propagateShapes()
}

// RepairMoved incrementally re-derives the model after node positions
// changed (topo.Network.SetPositions already applied). dirty is the
// geometric dirty set SetPositions returned: every node whose own
// position, neighbor set, or neighbor coordinates changed. The result is
// always exactly the from-scratch labeling of the moved network.
//
// Moves are not monotone — a node may gain safety when a neighbor drifts
// into its forwarding zone — so the failure-path worklist alone is not
// enough. Instead a reset region R is grown and re-labeled from above:
//
//   - R starts as dirty plus every node whose edge-pin status changed
//     (hull pins move with the hull, both ways);
//   - R closes over alive neighbors that are not fully safe under the
//     old labels. Any node that could gain a status bit must support the
//     gain through such a chain back into R: a node outside dirty has an
//     unchanged Definition 1 evaluation, so a gain at it demands a gain
//     at a neighbor, inductively ending in R. Fully safe nodes cannot
//     gain, which bounds the closure.
//
// Resetting R to all-safe (respecting liveness and the new pins) yields
// a state that dominates the fresh fixpoint everywhere, and the monotone
// worklist seeded with R then lowers it to exactly that fixpoint: labels
// outside R still satisfy their (unchanged) conditions against a state
// that only went up, and every lowering propagates through the worklist.
func (m *Model) RepairMoved(dirty []topo.NodeID) {
	newEdge := m.repin(dirty)
	n := m.Net.N()
	inR := make([]bool, n)
	region := make([]topo.NodeID, 0, len(dirty)*4)
	push := func(u topo.NodeID) {
		if !inR[u] {
			inR[u] = true
			region = append(region, u)
		}
	}
	for _, u := range dirty {
		push(u)
	}
	for i := range m.info {
		pinned := newEdge[i] && m.Net.Alive(topo.NodeID(i))
		if pinned != m.info[i].Pinned {
			push(topo.NodeID(i))
		}
	}
	// Closure over potential gainers, judged against the OLD labels —
	// this must run before the reset below.
	for qi := 0; qi < len(region); qi++ {
		for _, v := range m.Net.Neighbors(region[qi]) {
			if !inR[v] && !m.fullySafe(int(v)) {
				push(v)
			}
		}
	}

	m.edge = newEdge
	for _, u := range region {
		i := int(u)
		alive := m.Net.Alive(u)
		m.info[i].Pinned = newEdge[i] && alive
		for z := 0; z < geom.NumZones; z++ {
			m.info[i].Safe[z] = alive
		}
	}
	m.repairFrom(region)
	m.propagateShapes()
}

// fullySafe reports whether node i holds the (1,1,1,1) tuple.
func (m *Model) fullySafe(i int) bool {
	for _, s := range m.info[i].Safe {
		if !s {
			return false
		}
	}
	return true
}

// repairFrom runs the monotone worklist starting from the given seeds.
func (m *Model) repairFrom(seeds []topo.NodeID) {
	queue := append([]topo.NodeID(nil), seeds...)
	inQueue := make([]bool, m.Net.N())
	for _, u := range seeds {
		inQueue[u] = true
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		inQueue[u] = false
		if !m.Net.Alive(u) || m.info[u].Pinned {
			continue
		}
		if m.lower(u, m.info) {
			m.Cost.Messages += m.Net.Degree(u)
			for _, v := range m.Net.Neighbors(u) {
				if !inQueue[v] {
					inQueue[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
}
