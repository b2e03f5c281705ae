package core

import (
	"math"
	"sync"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/planar"
	"github.com/straightpath/wasn/internal/safety"
	"github.com/straightpath/wasn/internal/topo"
)

// SLGF2 is the paper's contribution (Algorithm 3). On top of SLGF's safe
// forwarding it adds, in escalation order:
//
//  1. Safe forwarding — request-zone successors safe toward d, with the
//     superseding either-hand preference: candidates in the forbidden
//     region of a visible unsafe-area estimate are avoided while the
//     destination sits in the critical region.
//  2. Backup-path forwarding — when no safe-toward-d successor exists,
//     route via neighbors that are safe in *some* type, sweeping with a
//     committed hand rule until safe forwarding resumes; the hand is
//     chosen from the destination's side of the blocking area's dividing
//     ray and released when the unsafe area is escaped.
//  3. Perimeter routing — the cautious last resort, confined to the
//     rectangular union of the visible E-areas and locked to one hand
//     until delivery.
type SLGF2 struct {
	net *topo.Network
	m   *safety.Model
	// TTLFactor overrides the hop budget (DefaultTTLFactor when 0).
	TTLFactor int

	disableShapeInfo  bool
	disableEitherHand bool
	disableBackup     bool

	// planarOnce lazily builds the Gabriel graph backing the perimeter
	// phase's face walk (the paper's right-hand rule reference [2] is
	// face routing); routes that never hit the perimeter never pay for
	// it.
	planarOnce sync.Once
	planarG    *planar.Graph
}

var _ Router = (*SLGF2)(nil)
var _ ObservedRouter = (*SLGF2)(nil)

// SLGF2Option configures ablation variants of SLGF2.
type SLGF2Option func(*SLGF2)

// WithoutShapeInfo drops every use of the estimated shape information:
// no critical/forbidden preference, no hand selection from the dividing
// ray, no perimeter confinement. What remains is SLGF plus the backup
// phase.
func WithoutShapeInfo() SLGF2Option {
	return func(r *SLGF2) { r.disableShapeInfo = true }
}

// WithoutEitherHand forces the right hand for every detour instead of
// choosing by the destination's side of the blocking area.
func WithoutEitherHand() SLGF2Option {
	return func(r *SLGF2) { r.disableEitherHand = true }
}

// WithoutBackup skips the backup-path phase, falling from safe
// forwarding straight to perimeter routing.
func WithoutBackup() SLGF2Option {
	return func(r *SLGF2) { r.disableBackup = true }
}

// WithPlanarGraph injects an already-built Gabriel graph for the
// perimeter phase's face walk, so callers that build one anyway (for
// GPSR, say) avoid the lazy duplicate build. A nil graph is ignored.
func WithPlanarGraph(g *planar.Graph) SLGF2Option {
	return func(r *SLGF2) { r.planarG = g }
}

// NewSLGF2 returns the paper's routing over net using the prebuilt
// safety information model.
func NewSLGF2(net *topo.Network, m *safety.Model, opts ...SLGF2Option) *SLGF2 {
	r := &SLGF2{net: net, m: m}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Name implements Router.
func (r *SLGF2) Name() string {
	switch {
	case r.disableShapeInfo && r.disableBackup:
		return "SLGF2-noshape-nobackup"
	case r.disableShapeInfo:
		return "SLGF2-noshape"
	case r.disableEitherHand:
		return "SLGF2-righthand"
	case r.disableBackup:
		return "SLGF2-nobackup"
	default:
		return "SLGF2"
	}
}

// planar returns the Gabriel graph, building it lazily unless one was
// injected via WithPlanarGraph at construction.
func (r *SLGF2) planar() *planar.Graph {
	r.planarOnce.Do(func() {
		if r.planarG == nil {
			r.planarG = planar.Build(r.net, planar.GabrielGraph)
		}
	})
	return r.planarG
}

// Route implements Router.
func (r *SLGF2) Route(src, dst topo.NodeID) Result {
	return r.RouteInto(src, dst, nil)
}

// RouteInto implements Router.
func (r *SLGF2) RouteInto(src, dst topo.NodeID, pathBuf []topo.NodeID) Result {
	return r.RouteObserved(src, dst, pathBuf, nil)
}

// RouteObserved implements ObservedRouter.
func (r *SLGF2) RouteObserved(src, dst topo.NodeID, pathBuf []topo.NodeID, obs HopObserver) Result {
	alg := slgf2AlgPool.Get().(*slgf2Alg)
	alg.reset(r)
	if !r.disableShapeInfo && r.net.Alive(src) && r.net.Alive(dst) {
		// The cautious confined perimeter applies when the source or
		// destination tuple is (0,0,0,0) (§4: the network may have
		// disconnected); confining ordinary detours would instead trap
		// the packet orbiting the unsafe area.
		alg.confine = r.m.AllUnsafe(src) || r.m.AllUnsafe(dst)
	}
	res := drive(r.net, alg, src, dst, r.TTLFactor, pathBuf, obs)
	alg.r = nil
	slgf2AlgPool.Put(alg)
	return res
}

type slgf2Alg struct {
	r *SLGF2
	// confine restricts the perimeter sweep to the union of visible
	// E-areas (contribution (c)); set only for (0,0,0,0) endpoints.
	confine bool
	// perimeterLocked pins the hand once the perimeter phase begins
	// ("stick with the same hand-rule until the destination is reached").
	perimeterLocked bool
	// faceVisited tracks directed planar edges of the active face walk;
	// revisiting one means the walk cannot help and the ray-sweep
	// fallback takes over (faceDead). Retained across pooled routes,
	// cleared per walk.
	faceVisited map[[2]topo.NodeID]bool
	faceDead    bool
	// shapes caches the visible estimates at the current node; nearby is
	// the unfiltered collection buffer. Both backing arrays are retained
	// across pooled routes.
	shapes    []safety.ShapeAt
	nearby    []safety.ShapeAt
	shapesFor topo.NodeID
	shapesOK  bool
}

var slgf2AlgPool = sync.Pool{New: func() any {
	return &slgf2Alg{faceVisited: make(map[[2]topo.NodeID]bool)}
}}

// reset readies a pooled alg for one route, retaining the map buckets
// and the shapes backing array.
func (a *slgf2Alg) reset(r *SLGF2) {
	a.r = r
	a.confine = false
	a.perimeterLocked = false
	clear(a.faceVisited)
	a.faceDead = false
	a.shapes = a.shapes[:0]
	a.shapesFor = topo.NoNode
	a.shapesOK = false
}

func (a *slgf2Alg) step(st *state) topo.NodeID {
	m := a.r.m
	// Step 1 (Algo 1 steps 1-2): direct delivery.
	if neighborOfDst(st) {
		st.phase = PhaseGreedy
		return st.dst
	}

	// The superseding either-hand preference: candidates must avoid the
	// forbidden region of every visible estimate whose critical region
	// holds the destination. Only estimates that actually block the
	// corridor to the destination arm the preference — an unsafe area
	// off the packet's way must not divert it.
	shapes := a.blockingShapes(st)

	// An active perimeter phase persists until the packet beats the
	// stuck node's distance; the hand stays locked regardless ("stick
	// with the same hand-rule until the destination is reached").
	if st.perimeterActive && st.perimeterDone() {
		st.perimeterActive = false
	}

	if !st.perimeterActive {
		// A backup detour ends once the packet has beaten its entry
		// distance.
		if st.backupActive && geom.Dist(st.net.Pos(st.cur), st.dstPos) < st.backupDist {
			st.backupActive = false
		}

		// Step 2+3: safe forwarding with the superseding rule. While a
		// backup detour is active, resuming safe forwarding requires
		// actual progress past the detour's entry point, otherwise the
		// packet oscillates on the rim of the unsafe area.
		safe := scanFilter{masks: m.SafeMasks()}
		if st.backupActive {
			safe.bounded = true
			safe.maxDist = st.backupDist
		}
		st.avoid, st.avoidModel = shapes, m
		v := greedyInForwardingZone(st, safe)
		st.avoid, st.avoidModel = nil, nil
		if v != topo.NoNode {
			st.phase = PhaseGreedy
			st.backupActive = false
			if !a.perimeterLocked {
				// Escaped the unsafe area: release the backup hand.
				st.hand = HandNone
			}
			return v
		}

		// Step 4: backup-path forwarding via any-type-safe neighbors,
		// bounded in proportion to the unsafe area's perimeter. The
		// side of the blocking area is encoded in the committed hand;
		// re-applying the region preference inside the sweep would let
		// a far-around "preferred" candidate override the geometric
		// order on every hop and spiral the packet.
		if !a.r.disableBackup {
			if !st.backupActive {
				st.backupActive = true
				st.backupDist = geom.Dist(st.net.Pos(st.cur), st.dstPos)
				st.backupBudget = a.backupBudget(st)
			}
			if st.backupBudget > 0 {
				anySafe := scanFilter{masks: m.SafeMasks(), anySafe: true}
				a.commitHand(st, anySafe)
				if v := sweepUntried(st, st.hand, anySafe); v != topo.NoNode {
					st.backupBudget--
					st.phase = PhaseBackup
					return v
				}
			}
		}
		st.enterPerimeter()
		// Fresh face walk per perimeter phase; the hand stays locked.
		clear(a.faceVisited)
		a.faceDead = false
	}

	// Step 5: perimeter routing with the committed hand. The walk
	// follows planar faces ([2]); if the face structure cannot make
	// progress (revisited directed edge, isolated planar node), the
	// untried ray sweep takes over, confined to the union of visible
	// E-areas in the cautious (0,0,0,0) case.
	a.commitHand(st, scanFilter{})
	a.perimeterLocked = true
	st.phase = PhasePerimeter
	if !a.faceDead {
		g := a.r.planar()
		prev := st.prev
		if prev != topo.NoNode && !g.HasEdge(st.cur, prev) {
			// Arrived over a non-planar edge (greedy/backup hop): seed
			// the sweep from the destination bearing instead.
			prev = topo.NoNode
		}
		ref := geom.Angle(st.net.Pos(st.cur), st.dstPos)
		next := g.FaceStep(st.cur, prev, ref, st.hand != LeftHand)
		if next != topo.NoNode {
			key := [2]topo.NodeID{st.cur, next}
			if !a.faceVisited[key] {
				a.faceVisited[key] = true
				return next
			}
		}
		a.faceDead = true
	}
	if a.confine && !a.r.disableShapeInfo {
		st.confine, st.confined = m.ConfinementBox(st.cur)
	}
	v := sweepUntried(st, st.hand, scanFilter{})
	st.confined = false
	return v
}

// blockingShapes returns the visible estimates whose rectangle intersects
// the straight corridor from the current node to the destination and is
// at least one radio range across. Smaller estimates are flattened by a
// single hop — letting their critical/forbidden split steer the routing
// (or pick the hand) trades a zero-cost hop for a detour.
func (a *slgf2Alg) blockingShapes(st *state) []safety.ShapeAt {
	if a.r.disableShapeInfo {
		return nil
	}
	if a.shapesFor != st.cur || !a.shapesOK {
		a.shapes = a.shapes[:0]
		up := st.net.Pos(st.cur)
		r2 := st.net.Radius * st.net.Radius
		a.nearby = a.r.m.AppendNearbyShapes(a.nearby[:0], st.cur, st.dstPos)
		for _, s := range a.nearby {
			w, h := s.Rect.Width(), s.Rect.Height()
			if w*w+h*h < r2 {
				continue
			}
			if geom.SegmentIntersectsRect(up, st.dstPos, s.Rect) {
				a.shapes = append(a.shapes, s)
			}
		}
		a.shapesFor = st.cur
		a.shapesOK = true
	}
	return a.shapes
}

// backupBudget bounds one backup detour by the estimated unsafe-area
// perimeter in hop units: perimeter / radius, doubled for slack, plus a
// constant floor for tiny areas.
func (a *slgf2Alg) backupBudget(st *state) int {
	const floor = 8
	box, ok := a.r.m.ConfinementBox(st.cur)
	if !ok {
		return floor
	}
	return 2*int(box.Perimeter()/st.net.Radius) + floor
}

// commitHand picks the hand rule on detour entry and keeps it: the
// either-hand rule. Both hands' first sweep candidates are peeked; the
// hand whose candidate stays out of the forbidden regions of the
// blocking estimates wins (the routing starts around the blocking area
// on the destination's side), with the smaller sweep rotation breaking
// ties. f restricts candidates to the entering phase's rule.
func (a *slgf2Alg) commitHand(st *state, f scanFilter) {
	if st.hand != HandNone {
		return
	}
	if a.r.disableEitherHand || a.r.disableShapeInfo {
		st.hand = RightHand
		return
	}
	shapes := a.blockingShapes(st)
	if len(shapes) == 0 {
		st.hand = RightHand
		return
	}
	m := a.r.m
	avoids := func(v topo.NodeID) bool {
		return m.AvoidsForbidden(shapes, st.dstPos, st.net.Pos(v))
	}
	bestHand := RightHand
	bestOK := false
	bestDelta := math.MaxFloat64
	for _, h := range []Hand{RightHand, LeftHand} {
		v, delta := sweepPeek(st, h, f)
		if v == topo.NoNode {
			continue
		}
		ok := avoids(v)
		switch {
		case ok && !bestOK:
			bestHand, bestOK, bestDelta = h, true, delta
		case ok == bestOK && delta < bestDelta:
			bestHand, bestDelta = h, delta
		}
	}
	st.hand = bestHand
}
