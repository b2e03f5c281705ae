package bound

import (
	"slices"

	"github.com/straightpath/wasn/internal/topo"
)

// orbits labels the successor permutation σ (Boundaries.next) over the
// live darts (directed edges with both endpoints alive). A BOUNDHOLE
// walk from stuck node t0 follows σ from its first-hop dart s0 and
// closes at the first dart whose head is t0. Since tail(σ(d)) = head(d),
// that dart sits just before the next dart with tail t0, so on a
// σ-cycle the walk's length is dist[at[s0]], a lookup, and its cycle is
// a range of seq.
//
// σ is a bijection unless two neighbors of a node share a bearing: the
// sweep's tie rule then sends two back-edges to one successor, and the
// darts upstream of the merge lie off every σ-cycle. A walk starting
// there is the one walk still stepped explicitly (walkLen).
type orbits struct {
	// at is a dart's index into seq, or one of the labeling states
	// below zero: dartOff once the dart is labeled off every σ-cycle,
	// dartOnPath while it is on the current labeling path, and
	// dartUnvisited before (and for ever, if the dart is not live).
	at []int32
	// seq holds the tail of every on-cycle dart, one orbit after
	// another; orbit o spans seq[span[o]:span[o+1]]. orbit[i] is the
	// orbit of seq[i], and dist[i] the number of σ steps to the next
	// dart of the orbit with the same tail, counted circularly.
	seq   []topo.NodeID
	orbit []int32
	dist  []int32
	span  []int32
	// path holds the darts of the current labeling path; last is the
	// per-node last-seen index of the dist passes, -1 between orbits.
	path []int32
	last []int32
	// claimed marks the seq positions a walk has claimed; off-cycle darts
	// are claimed by a generation stamp per slot.
	claimed []uint64
	stamp   []uint32
	gen     uint32
}

// The labeling states of a dart that is not on a σ-cycle (orbits.at).
const (
	dartOff       = -1
	dartOnPath    = -2
	dartUnvisited = -3
)

// label rebuilds the orbit labels with the functional-graph cycle walk —
// from every unvisited live dart, follow σ until reaching a labeled dart
// or closing a new cycle on the current path, O(live darts) — and clears
// both claim spaces. The scratch holds every slot from the start, so a
// fresh Boundaries grows nothing while labeling.
func (b *Boundaries) label() {
	net, o := b.net, &b.orbits
	slots := net.AdjSlots()
	o.gen++
	if len(o.stamp) < slots || o.gen == 0 {
		o.stamp, o.gen = make([]uint32, slots), 1
	}
	o.at = slices.Grow(o.at[:0], slots)[:slots]
	for s := range o.at {
		o.at[s] = dartUnvisited
	}
	if len(o.last) < net.N() {
		o.last = make([]int32, net.N())
		for u := range o.last {
			o.last[u] = -1
		}
	}
	o.seq, o.orbit, o.dist = slices.Grow(o.seq[:0], slots), slices.Grow(o.orbit[:0], slots), slices.Grow(o.dist[:0], slots)
	o.path, o.span = slices.Grow(o.path[:0], slots), append(o.span[:0], 0)
	for i := range b.recs {
		u := topo.NodeID(i)
		if !net.Alive(u) {
			continue
		}
		for j, v := range net.AdjacencyRow(u) {
			s := int32(net.AdjOffset(u) + j)
			if !net.Alive(v) || o.at[s] != dartUnvisited {
				continue
			}
			path := o.path[:0]
			for o.at[s] == dartUnvisited {
				o.at[s] = dartOnPath
				path = append(path, s)
				s = b.next(s)
			}
			k := len(path)
			if o.at[s] == dartOnPath {
				for k--; path[k] != s; k-- {
				}
				o.addOrbit(net, path[k:])
			}
			for _, d := range path[:k] {
				o.at[d] = dartOff
			}
			o.path = path
		}
	}
	o.claimed = growClear(o.claimed, (len(o.seq)+63)/64)
}

// addOrbit appends one σ-cycle to seq — the tail of each dart, the head
// of the dart before it — and computes its dist entries with two
// backward passes over a per-node last-seen index: the first finds each
// dart's next same-tail dart ahead of it, the second wraps a tail's last
// occurrence round to its first and resets the index.
func (o *orbits) addOrbit(net *topo.Network, darts []int32) {
	base, id := int32(len(o.seq)), int32(len(o.span)-1)
	prev := darts[len(darts)-1]
	for k, d := range darts {
		o.at[d] = base + int32(k)
		o.seq = append(o.seq, net.AdjHead(prev))
		o.orbit = append(o.orbit, id)
		prev = d
	}
	o.dist = append(o.dist, make([]int32, len(darts))...)
	n := int32(len(o.seq))
	o.span = append(o.span, n)
	for i := n - 1; i >= base; i-- {
		t := o.seq[i]
		if o.last[t] >= 0 {
			o.dist[i] = o.last[t] - i
		}
		o.last[t] = i
	}
	for i := n - 1; i >= base; i-- {
		t := o.seq[i]
		if o.dist[i] == 0 {
			o.dist[i] = o.last[t] + n - base - i
		}
		if o.last[t] == i {
			o.last[t] = -1
		}
	}
}

// walkLen returns the number of darts of the BOUNDHOLE walk from t0 that
// leaves over slot s0 — also its cycle's node count — or 0 when the walk
// does not close at t0 within maxLen darts. Off every σ-cycle the walk
// is stepped: its path runs off-cycle and then enters a cycle, so it can
// repeat a dart (and never close) only by coming round to its entry dart.
func (b *Boundaries) walkLen(t0 topo.NodeID, s0 int32) int {
	if i := b.at[s0]; i >= 0 {
		if n := int(b.dist[i]); n <= b.maxLen {
			return n
		}
		return 0
	}
	entry := int32(-1)
	tail, s := t0, s0
	for n := 1; n <= b.maxLen; n++ {
		tail = b.net.AdjHead(s)
		if tail == t0 {
			return n
		}
		s = b.next(s)
		if b.at[s] >= 0 {
			if s == entry {
				return 0
			}
			if entry < 0 {
				entry = s
			}
		}
	}
	return 0
}

// claim marks the n darts of the closed walk leaving over s0 as claimed
// and reports whether any of them already was. A walk that starts on a
// σ-cycle never leaves it, so its darts are one circular range of seq;
// an off-cycle walk is replayed dart by dart.
func (b *Boundaries) claim(s0 int32, n int) (dup bool) {
	o := &b.orbits
	if i := o.at[s0]; i >= 0 {
		lo, hi := int(o.span[o.orbit[i]]), int(o.span[o.orbit[i]+1])
		end := int(i) + n
		if end <= hi {
			return testAndSet(o.claimed, int(i), end)
		}
		dup = testAndSet(o.claimed, int(i), hi)
		return testAndSet(o.claimed, lo, lo+end-hi) || dup
	}
	for s, k := s0, 0; k < n; s, k = b.next(s), k+1 {
		if i := o.at[s]; i >= 0 {
			dup = testAndSet(o.claimed, int(i), int(i)+1) || dup
			continue
		}
		dup = dup || o.stamp[s] == o.gen
		o.stamp[s] = o.gen
	}
	return dup
}

// appendCycle appends the node cycle of the closed n-dart walk from t0
// leaving over s0 — the tails of its darts — to c.
func (b *Boundaries) appendCycle(c []topo.NodeID, t0 topo.NodeID, s0 int32, n int) []topo.NodeID {
	o := &b.orbits
	if i := int(o.at[s0]); i >= 0 {
		lo, hi := int(o.span[o.orbit[i]]), int(o.span[o.orbit[i]+1])
		c = append(c, o.seq[i:min(i+n, hi)]...)
		return append(c, o.seq[lo:lo+max(i+n-hi, 0)]...)
	}
	for tail, s, k := t0, s0, 0; k < n; s, k = b.next(s), k+1 {
		c = append(c, tail)
		tail = b.net.AdjHead(s)
	}
	return c
}

// testAndSet sets bits [lo, hi) and reports whether any was already set.
func testAndSet(bits []uint64, lo, hi int) (hit bool) {
	for lo < hi {
		w, end := lo>>6, min(hi, (lo|63)+1)
		m := ^uint64(0) >> (64 - uint(end-lo)) << (uint(lo) & 63)
		hit = hit || bits[w]&m != 0
		bits[w] |= m
		lo = end
	}
	return hit
}
