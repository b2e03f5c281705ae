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
// it, so every pre-mutation entry becomes unreachable at once (and is
// purged eagerly) without blocking readers on a global sweep.
type cacheKey struct {
	epoch    uint64
	src, dst topo.NodeID
	dep      uint32
	alg      uint32
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
	// slots holds sets consecutive sets of ways slots; never resized.
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
// than one set is a single fully associative set (exact LRU).
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
		c.shards[i] = &cacheShard{slots: make([]cacheSlot, sets*ways), ways: ways, sets: uint64(sets)}
	}
	return c
}

// locate returns k's shard and the set that may hold it: a wyhash-style
// mix of the whole key whose low half picks the shard, high half the set.
func (c *routeCache) locate(k cacheKey) (*cacheShard, []cacheSlot) {
	hi, lo := bits.Mul64(k.epoch^0xa0761d6478bd642f, uint64(k.src)^0xe7037ed1a0b428db)
	hi, lo = bits.Mul64(hi^lo^uint64(k.dst), (uint64(k.dep)<<32|uint64(k.alg))^0x8ebc6af09c88c6e3)
	hi, lo = bits.Mul64(hi^lo, 0x589965cc75374cc3)
	h := hi ^ lo
	sh := c.shards[uint64(uint32(h))*uint64(len(c.shards))>>32]
	i := int((h>>32)*sh.sets>>32) * sh.ways
	return sh, sh.slots[i : i+sh.ways : i+sh.ways]
}

// get returns the cached result for k and whether it was present.
func (c *routeCache) get(k cacheKey) (core.Result, bool) {
	sh, set := c.locate(k)
	sh.mu.Lock()
	for i := range set {
		if sl := &set[i]; sl.tick != 0 && sl.key == k {
			sh.tick++
			sl.tick = sh.tick
			res := core.Result{Delivered: sl.delivered, Reason: core.DropReason(sl.reason), Length: sl.length}
			for p, n := range sl.phase {
				res.PhaseHops[p] = int(n)
			}
			sh.hits++
			sh.mu.Unlock()
			return res, true
		}
	}
	sh.misses++
	sh.mu.Unlock()
	return core.Result{}, false
}

// put stores a result's aggregate outcome (never its path, so the cache
// retains no caller buffer and Result.Hops stays correct via the phase
// counts). It overwrites k's slot if present, else fills the set's
// least recently used slot — an empty one first, evicting otherwise.
func (c *routeCache) put(k cacheKey, res core.Result) {
	sl := cacheSlot{key: k, length: res.Length, delivered: res.Delivered, reason: uint8(res.Reason)}
	for p, n := range res.PhaseHops {
		sl.phase[p] = int32(n)
	}
	sh, set := c.locate(k)
	sh.mu.Lock()
	// One scan: stop at k's slot, else end on the oldest (empty: tick 0).
	i, found := 0, false
	for j := range set {
		if found = set[j].tick != 0 && set[j].key == k; found {
			i = j
			break
		}
		if set[j].tick < set[i].tick {
			i = j
		}
	}
	if !found && set[i].tick == 0 {
		sh.live++
	} else if !found {
		sh.evicted++
	}
	sh.tick++
	sl.tick = sh.tick
	set[i] = sl
	sh.mu.Unlock()
}

// purgeDeployment empties every slot of deployment dep (any epoch),
// returning how many it removed. Epoch keying already makes stale
// entries unreachable; the purge frees their slots eagerly.
func (c *routeCache) purgeDeployment(dep uint32) int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		for i := range sh.slots {
			if sl := &sh.slots[i]; sl.tick != 0 && sl.key.dep == dep {
				*sl = cacheSlot{}
				sh.live--
				sh.purged++
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
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
