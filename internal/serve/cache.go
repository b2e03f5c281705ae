package serve

import (
	"math/bits"
	"sync"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/topo"
)

// cacheKey identifies one cached route with no pointers or strings: dep
// is the deployment's registry id, alg the algorithm's index in
// Algorithms(). The epoch is part of the key: a topology mutation bumps
// it, so every pre-mutation entry becomes unreachable at once without
// any sweep. The epoch does not pick the set, though: a route keeps its
// set across epochs, so the put that recomputes it reclaims the stale
// entry in place (see put).
type cacheKey struct {
	epoch    uint64
	src, dst topo.NodeID
	dep      uint32
	alg      uint32
}

// sameRoute reports whether a and b name the same route, at any epoch.
func (a cacheKey) sameRoute(b cacheKey) bool {
	return a.src == b.src && a.dst == b.dst && a.dep == b.dep && a.alg == b.alg
}

// cacheSlot is one cached route: the key, the pathless outcome, and the
// shard tick of its last use (0: empty). 72 bytes and pointer-free, so
// the garbage collector never scans the slot arrays.
type cacheSlot struct {
	key       cacheKey
	tick      uint64
	length    float64
	phase     [core.NumPhases + 1]int32
	delivered bool
	reason    uint8
}

// routeCache is a sharded, set-associative cache of routing results.
// Each shard owns a fixed slot array cut into sets of cacheWays slots;
// a full set evicts its least recently used slot, so eviction is LRU
// within a set and can start before the cache is full. Sharding keeps
// lock contention off the hot path, and the statistics are plain words
// bumped under the shard lock the operation already holds.
type routeCache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	// slots holds sets consecutive sets of ways slots, allocated by the
	// shard's first put (guarded by mu) and never resized; until then
	// every get on the shard is a miss.
	slots []cacheSlot
	ways  int
	sets  uint64
	// Guarded by mu: the use clock stamped on every hit and put, the
	// occupied slot count, and the statistics (reads sum the shards).
	tick uint64
	live int
	cacheStats
}

// cacheStats is the shard-local and shard-summed statistics.
type cacheStats struct{ hits, misses, evicted, purged int64 }

const (
	cacheWays          = 8       // slots per set: a key lives in one set
	defaultCacheSize   = 1 << 16 // total entries when Config.CacheSize is 0
	defaultCacheShards = 16      // when Config.CacheShards is 0
)

// newRouteCache builds a cache with the given total capacity spread over
// the shards. Capacity below the shard count is rounded up to one entry
// per shard, and a shard's capacity up to whole sets; a shard smaller
// than one set is a single fully associative set (exact LRU). No slot
// is allocated until a put reaches its shard.
func newRouteCache(size, shards int) *routeCache {
	if size <= 0 {
		size = defaultCacheSize
	}
	if shards <= 0 {
		shards = defaultCacheShards
	}
	perShard := (size + shards - 1) / shards
	ways := min(perShard, cacheWays)
	sets := (perShard + ways - 1) / ways
	c := &routeCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{ways: ways, sets: uint64(sets)}
	}
	return c
}

// locate returns k's shard and the offset in its slots of the set that
// may hold it: a wyhash-style mix of the key without its epoch whose
// low half picks the shard, high half the set. Inlined into get, it
// made a hit take 50 ns instead of 28 ns (BenchmarkRouteCacheHit, 2
// vCPUs), so it stays a call.
//
//go:noinline
func (c *routeCache) locate(k cacheKey) (*cacheShard, int) {
	hi, lo := bits.Mul64(uint64(uint32(k.src))|uint64(uint32(k.dst))<<32^0xa0761d6478bd642f,
		(uint64(k.dep)<<32|uint64(k.alg))^0xe7037ed1a0b428db)
	hi, lo = bits.Mul64(hi^lo, 0x589965cc75374cc3)
	h := hi ^ lo
	sh := c.shards[uint64(uint32(h))*uint64(len(c.shards))>>32]
	return sh, int((h>>32)*sh.sets>>32) * sh.ways
}

// set returns the set at offset i, empty while the shard has no slots.
// The caller holds sh.mu.
func (sh *cacheShard) set(i int) []cacheSlot {
	if sh.slots == nil {
		return nil
	}
	return sh.slots[i : i+sh.ways : i+sh.ways]
}

// get reports whether k is cached and, if it is, overwrites *res with
// the cached (pathless) result. The result is written in place, not
// returned: core.Result is passed in memory, and the hit path is short
// enough that copying it once per call layer would show.
func (c *routeCache) get(k cacheKey, res *core.Result) bool {
	sh, at := c.locate(k)
	sh.mu.Lock()
	set := sh.set(at)
	for i := range set {
		if sl := &set[i]; sl.tick != 0 && sl.key == k {
			sh.tick++
			sl.tick = sh.tick
			res.Path, res.Delivered, res.Reason, res.Length = nil, sl.delivered, core.DropReason(sl.reason), sl.length
			for p, n := range sl.phase {
				res.PhaseHops[p] = int(n)
			}
			sh.hits++
			sh.mu.Unlock()
			return true
		}
	}
	sh.misses++
	sh.mu.Unlock()
	return false
}

// put stores a result's aggregate outcome (never its path, so the cache
// retains no caller buffer and Result.Hops stays correct via the phase
// counts). It overwrites k's slot if present, else the slot of k's
// route at an older epoch, else the set's least recently used slot —
// an empty one first. A victim of k's own deployment at an older epoch
// was already unreachable, so it counts as purged, not evicted.
func (c *routeCache) put(k cacheKey, res core.Result) {
	sl := cacheSlot{key: k, length: res.Length, delivered: res.Delivered, reason: uint8(res.Reason)}
	for p, n := range res.PhaseHops {
		sl.phase[p] = int32(n)
	}
	sh, at := c.locate(k)
	sh.mu.Lock()
	if sh.slots == nil {
		sh.slots = make([]cacheSlot, sh.sets*uint64(sh.ways))
	}
	set := sh.set(at)
	// One scan: stop at k's slot, else end on the stale slot of k's
	// route, else on the oldest (empty: tick 0).
	i, found, stale := 0, false, false
	for j := range set {
		if old := set[j].key; set[j].tick != 0 && old.sameRoute(k) && old.epoch <= k.epoch {
			i, found, stale = j, old.epoch == k.epoch, true
			if found {
				break
			}
		} else if !stale && set[j].tick < set[i].tick {
			i = j
		}
	}
	switch old := set[i].key; {
	case found:
	case set[i].tick == 0:
		sh.live++
	case old.dep == k.dep && old.epoch < k.epoch:
		sh.purged++
	default:
		sh.evicted++
	}
	sh.tick++
	sl.tick = sh.tick
	set[i] = sl
	sh.mu.Unlock()
}

// stats sums the shard-local counters into one snapshot. A scrape-path
// read: it takes each shard lock briefly, never on the serving path.
func (c *routeCache) stats() cacheStats {
	var s cacheStats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.hits, s.misses = s.hits+sh.hits, s.misses+sh.misses
		s.evicted, s.purged = s.evicted+sh.evicted, s.purged+sh.purged
		sh.mu.Unlock()
	}
	return s
}

// len returns the total number of live entries.
func (c *routeCache) len() int {
	total := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		total += sh.live
		sh.mu.Unlock()
	}
	return total
}
