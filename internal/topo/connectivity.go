package topo

import "sync"

// searchScratch is the pooled per-query state of the graph searches in
// this file (visited marks, BFS queue, predecessor/distance arrays, the
// Dijkstra heap). Queries Get one, size it to the network, and Put it
// back, so steady-state searches allocate nothing. The scratch is sized
// lazily: a pool entry last used on a smaller network regrows once.
type searchScratch struct {
	visited []bool
	queue   []NodeID
	prev    []NodeID
	dist    []float64
	done    []bool
	heap    []pqItem
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// acquireSearch returns a scratch with visited/prev/dist/done sized and
// reset for an n-node network and empty queue/heap.
func acquireSearch(n int) *searchScratch {
	s := searchPool.Get().(*searchScratch)
	if cap(s.visited) < n {
		s.visited = make([]bool, n)
		s.prev = make([]NodeID, n)
		s.dist = make([]float64, n)
		s.done = make([]bool, n)
	}
	// BFS queues pop by re-slicing forward, so the high-water index never
	// exceeds n; capacity n guarantees appends never reallocate.
	if cap(s.queue) < n {
		s.queue = make([]NodeID, 0, n)
	}
	s.visited = s.visited[:n]
	s.prev = s.prev[:n]
	s.dist = s.dist[:n]
	s.done = s.done[:n]
	clear(s.visited)
	clear(s.done)
	s.queue = s.queue[:0]
	s.heap = s.heap[:0]
	return s
}

func releaseSearch(s *searchScratch) { searchPool.Put(s) }

// Components labels every alive node with a connected-component id and
// returns the labels (dead nodes get -1) plus the number of components.
func Components(net *Network) (labels []int, count int) {
	labels = make([]int, net.N())
	for i := range labels {
		labels[i] = -1
	}
	s := acquireSearch(net.N())
	defer releaseSearch(s)
	for start := range net.Nodes {
		if !net.Nodes[start].Alive || labels[start] != -1 {
			continue
		}
		labels[start] = count
		queue := append(s.queue[:0], NodeID(start))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range net.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = count
					queue = append(queue, v)
				}
			}
		}
		count++
	}
	return labels, count
}

// RoutablePairs returns up to want (src, dst) pairs of alive nodes that
// lie in the same connected component and are at least minDist apart —
// the routable, well-separated queries the serving layer, benchmarks,
// and load generator drive traffic with. The scan is deterministic
// (ascending src, first qualifying dst from the top) and yields at most
// one pair per source.
//
// Candidates are bucketed by component once (descending id), so each
// source only scans its own component's members above it instead of
// every node — the previous implementation's O(n²) cross-component scan.
func RoutablePairs(net *Network, want int, minDist float64) [][2]NodeID {
	labels, count := Components(net)
	sizes := make([]int, count)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	buckets := make([][]NodeID, count)
	for c, sz := range sizes {
		buckets[c] = make([]NodeID, 0, sz)
	}
	for i := net.N() - 1; i >= 0; i-- {
		if l := labels[i]; l >= 0 {
			buckets[l] = append(buckets[l], NodeID(i))
		}
	}
	var pairs [][2]NodeID
	for s := 0; s < net.N() && len(pairs) < want; s++ {
		l := labels[s]
		if l < 0 {
			continue
		}
		for _, d := range buckets[l] {
			if int(d) <= s {
				break // descending bucket: no qualifying dst above s left
			}
			if net.Dist(NodeID(s), d) >= minDist {
				pairs = append(pairs, [2]NodeID{NodeID(s), d})
				break
			}
		}
	}
	return pairs
}

// Connected reports whether alive nodes a and b are in the same
// component. Allocation-free in steady state: the BFS runs over pooled
// scratch.
func Connected(net *Network, a, b NodeID) bool {
	if !net.Alive(a) || !net.Alive(b) {
		return false
	}
	if a == b {
		return true
	}
	s := acquireSearch(net.N())
	defer releaseSearch(s)
	s.visited[a] = true
	queue := append(s.queue[:0], a)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.Neighbors(u) {
			if v == b {
				return true
			}
			if !s.visited[v] {
				s.visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

// ShortestHopPathInto is ShortestHopPath appending into buf[:0]; passing
// a reused buffer makes the query allocation-free in steady state. The
// returned slice is nil when unreachable (buf is then unused).
func ShortestHopPathInto(net *Network, src, dst NodeID, buf []NodeID) []NodeID {
	if !net.Alive(src) || !net.Alive(dst) {
		return nil
	}
	if src == dst {
		return append(buf[:0], src)
	}
	s := acquireSearch(net.N())
	defer releaseSearch(s)
	for i := range s.prev {
		s.prev[i] = NoNode
	}
	s.prev[src] = src
	queue := append(s.queue[:0], src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.Neighbors(u) {
			if s.prev[v] != NoNode {
				continue
			}
			s.prev[v] = u
			if v == dst {
				return tracePath(s.prev, src, dst, buf)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// tracePath reconstructs src..dst from the predecessor array, appending
// into buf[:0] and reversing in place.
func tracePath(prev []NodeID, src, dst NodeID, buf []NodeID) []NodeID {
	out := buf[:0]
	for at := dst; ; at = prev[at] {
		out = append(out, at)
		if at == src {
			break
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// pqPush and pqPop implement a binary min-heap over a plain slice. The
// container/heap interface would box every pqItem through interface{};
// the concrete version keeps Dijkstra allocation-free on pooled scratch.
func pqPush(h []pqItem, it pqItem) []pqItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

func pqPop(h []pqItem) (pqItem, []pqItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].dist < h[smallest].dist {
			smallest = l
		}
		if r < len(h) && h[r].dist < h[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top, h
}

// ShortestEuclideanPathInto is ShortestEuclideanPath appending into
// buf[:0]; passing a reused buffer makes the query allocation-free in
// steady state. The returned slice is nil when unreachable.
func ShortestEuclideanPathInto(net *Network, src, dst NodeID, buf []NodeID) []NodeID {
	if !net.Alive(src) || !net.Alive(dst) {
		return nil
	}
	if src == dst {
		return append(buf[:0], src)
	}
	const unreached = -1.0
	s := acquireSearch(net.N())
	defer releaseSearch(s)
	for i := range s.dist {
		s.dist[i] = unreached
		s.prev[i] = NoNode
	}
	s.dist[src] = 0
	s.prev[src] = src
	h := append(s.heap[:0], pqItem{node: src, dist: 0})
	for len(h) > 0 {
		var it pqItem
		it, h = pqPop(h)
		u := it.node
		if s.done[u] {
			continue
		}
		s.done[u] = true
		if u == dst {
			s.heap = h[:0]
			return tracePath(s.prev, src, dst, buf)
		}
		for _, v := range net.Neighbors(u) {
			if s.done[v] {
				continue
			}
			nd := s.dist[u] + net.Dist(u, v)
			if s.dist[v] == unreached || nd < s.dist[v] {
				s.dist[v] = nd
				s.prev[v] = u
				h = pqPush(h, pqItem{node: v, dist: nd})
			}
		}
	}
	s.heap = h[:0]
	return nil
}
