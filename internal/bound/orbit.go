package bound

import "github.com/straightpath/wasn/internal/topo"

// orbits labels the successor permutation σ over the live darts
// (directed edges with both endpoints alive). A BOUNDHOLE walk from
// stuck node t0 follows σ from its first-hop dart s0 and closes at the
// first dart whose head is t0. Since tail(σ(d)) = head(d), that dart
// sits just before the next dart with tail t0, so on a σ-cycle the
// walk's length is dist[at[s0]], a lookup, and its cycle is a range of
// seq.
//
// σ is a bijection unless two neighbors of a node share a bearing: the
// sweep's tie rule then sends two back-edges to one successor, and the
// darts upstream of the merge lie off every σ-cycle. A walk starting
// there is the one walk still stepped explicitly (walkLen).
type orbits struct {
	// sig is σ materialized over every slot, sig[s] = σ(s); entries of
	// darts that are not live are never read.
	sig []int32
	// at is a dart's index into seq, or one of the labeling states
	// below zero: dartOff once the dart is labeled off every σ-cycle,
	// and dartUnvisited before (and for ever, if the dart is not live).
	at []int32
	// seq holds the tail of every on-cycle dart, one orbit after
	// another; orbit o spans seq[span[o]:span[o+1]]. orbit[i] is the
	// orbit of seq[i], and dist[i] the number of σ steps to the next
	// dart of the orbit with the same tail, counted circularly.
	seq   []topo.NodeID
	orbit []int32
	dist  []int32
	span  []int32
	// last is the per-node last-seen index of the dist pass, -1 between
	// orbits, and wrap the seq positions of the orbit's last occurrence
	// of each tail.
	last []int32
	wrap []int32
	// claimed marks the seq positions a walk has claimed; off-cycle darts
	// are claimed by a generation stamp per slot.
	claimed []uint64
	stamp   []uint32
	gen     uint32
}

// The labeling states of a dart that is not on a σ-cycle (orbits.at).
const (
	dartOff       = -1
	dartUnvisited = -2
)

// label rebuilds the orbit labels and clears both claim spaces. It
// first materializes σ in one linear pass over the back-edges, then
// runs the functional-graph cycle walk over it: from every unvisited
// live dart, follow σ, numbering the darts into seq as it goes, until
// reaching a numbered dart. If that dart is the walk's first, the walk
// closed a new orbit; if it is a later one, the walk is a cycle with an
// off-cycle lead-in (a sweep tie), which is cut off; otherwise the walk
// ran into an earlier orbit and lies off every cycle. O(live darts).
// The scratch holds every slot from the start, so a fresh Boundaries
// grows nothing while labeling.
func (b *Boundaries) label() {
	net, o := b.net, &b.orbits
	slots := net.AdjSlots()
	o.gen++
	if len(o.stamp) < slots || o.gen == 0 {
		o.stamp, o.gen = make([]uint32, slots), 1
	}
	sig := grow(o.sig, slots)
	for r, c := range b.out.At {
		sig[net.AdjReverse(int32(r))] = int32(r) + c
	}
	at := grow(o.at, slots)
	for s := range at {
		at[s] = dartUnvisited
	}
	o.sig, o.at = sig, at
	if len(o.last) < net.N() {
		o.last = make([]int32, net.N())
		for u := range o.last {
			o.last[u] = -1
		}
	}
	o.seq, o.orbit, o.dist = grow(o.seq, slots), grow(o.orbit, slots), grow(o.dist, slots)
	if cap(o.wrap) < net.N() {
		o.wrap = make([]int32, 0, net.N())
	}
	seq := o.seq
	o.span = append(o.span[:0], 0)
	base := int32(0)
	for u := range net.N() {
		if !net.Alive(topo.NodeID(u)) {
			continue
		}
		off := int32(net.AdjOffset(topo.NodeID(u)))
		for j, v := range net.AdjacencyRow(topo.NodeID(u)) {
			s0 := off + int32(j)
			if at[s0] != dartUnvisited || !net.Alive(v) {
				continue
			}
			i, s, tail := base, s0, topo.NodeID(u)
			for at[s] == dartUnvisited {
				at[s], seq[i] = i, tail
				tail, s, i = net.AdjHead(s), sig[s], i+1
			}
			switch lead := at[s] - base; {
			case lead == 0:
			case lead > 0 && lead < i-base:
				// Cut the lead-in: its darts go off-cycle, the cycle's
				// move down to base.
				for d, k := s0, int32(0); k < lead; d, k = sig[d], k+1 {
					at[d] = dartOff
				}
				copy(seq[base:], seq[base+lead:i])
				for d, k := s, int32(0); k < i-base-lead; d, k = sig[d], k+1 {
					at[d] -= lead
				}
				i -= lead
			default:
				for d, k := s0, base; k < i; d, k = sig[d], k+1 {
					at[d] = dartOff
				}
				continue
			}
			o.addOrbit(base, i)
			base = i
		}
	}
	o.seq, o.orbit, o.dist = seq[:base], o.orbit[:base], o.dist[:base]
	o.claimed = growClear(o.claimed, (len(o.seq)+63)/64)
}

// addOrbit records seq[base:end] as one σ-cycle and computes its dist
// entries in one backward pass over a per-node last-seen index: each
// dart's next same-tail dart ahead of it, except at a tail's last
// occurrence, which wraps round to its first and is noted in wrap.
// Fixing those entries (one per distinct tail) resets the index.
func (o *orbits) addOrbit(base, end int32) {
	id := int32(len(o.span) - 1)
	o.span = append(o.span, end)
	seq, dist := o.seq[:end], o.dist[:end]
	wrap := o.wrap[:0]
	for i := end - 1; i >= base; i-- {
		o.orbit[i] = id
		t := seq[i]
		if l := o.last[t]; l >= 0 {
			dist[i] = l - i
		} else {
			wrap = append(wrap, i)
		}
		o.last[t] = i
	}
	for _, i := range wrap {
		t := seq[i]
		dist[i] = o.last[t] + end - base - i
		o.last[t] = -1
	}
	o.wrap = wrap
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
		s = b.sig[s]
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
	for s, k := s0, 0; k < n; s, k = o.sig[s], k+1 {
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
	for tail, s, k := t0, s0, 0; k < n; s, k = o.sig[s], k+1 {
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
