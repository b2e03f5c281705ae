package serve

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/straightpath/wasn/internal/core"
	"github.com/straightpath/wasn/internal/topo"
)

// depIDs interns the tests' deployment names into cache deployment ids,
// the way Deploy numbers registered deployments.
var depIDs = map[string]uint32{}

func depID(name string) uint32 {
	id, ok := depIDs[name]
	if !ok {
		id = uint32(len(depIDs))
		depIDs[name] = id
	}
	return id
}

func key(dep string, epoch uint64, src, dst int) cacheKey {
	ai, _ := algorithmIndex("SLGF2")
	return cacheKey{epoch: epoch, src: topo.NodeID(src), dst: topo.NodeID(dst), dep: depID(dep), alg: uint32(ai)}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := newRouteCache(8, 1)
	k := key("d", 0, 1, 2)
	if _, ok := c.lookup(k); ok {
		t.Fatal("get on empty cache hit")
	}
	c.put(k, core.Result{Delivered: true, Length: 42})
	res, ok := c.lookup(k)
	if !ok || res.Length != 42 {
		t.Fatalf("get = %+v, %v; want cached result", res, ok)
	}
	if h, m := c.stats().hits, c.stats().misses; h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d; want 1, 1", h, m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newRouteCache(3, 1)
	for i := 0; i < 3; i++ {
		c.put(key("d", 0, i, i+1), core.Result{Length: float64(i)})
	}
	// Touch entry 0 so entry 1 is the LRU victim.
	if _, ok := c.lookup(key("d", 0, 0, 1)); !ok {
		t.Fatal("expected entry 0 present")
	}
	c.put(key("d", 0, 9, 10), core.Result{})
	if _, ok := c.lookup(key("d", 0, 1, 2)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, ok := c.lookup(key("d", 0, 0, 1)); !ok {
		t.Fatal("recently used entry 0 was evicted")
	}
	if c.stats().evicted != 1 {
		t.Fatalf("evicted = %d; want 1", c.stats().evicted)
	}
}

func TestCacheEpochMakesEntriesUnreachable(t *testing.T) {
	c := newRouteCache(8, 2)
	c.put(key("d", 0, 1, 2), core.Result{Delivered: true})
	if _, ok := c.lookup(key("d", 1, 1, 2)); ok {
		t.Fatal("epoch-1 get hit an epoch-0 entry")
	}
}

// TestCacheLazyReclaim pins how stale entries leave the cache without a
// sweep: a put whose victim is its own deployment at an older epoch
// reclaims it and counts it as purged; any other victim counts as
// evicted.
func TestCacheLazyReclaim(t *testing.T) {
	c := newRouteCache(8, 1) // one fully associative set: exact LRU
	for i := 0; i < 8; i++ {
		c.put(key("a", 0, i, i+1), core.Result{})
	}
	for i := 0; i < 4; i++ {
		c.put(key("a", 1, i, i+1), core.Result{Length: 1})
	}
	if st := c.stats(); st.purged != 4 || st.evicted != 0 || c.len() != 8 {
		t.Fatalf("after 4 epoch-1 puts: %+v, len %d; want 4 purged, 0 evicted, len 8", st, c.len())
	}
	c.put(key("b", 0, 1, 2), core.Result{})  // victim a@0 belongs to another deployment
	c.put(key("a", 0, 9, 10), core.Result{}) // victim a@0 is not older
	if st := c.stats(); st.purged != 4 || st.evicted != 2 {
		t.Fatalf("after foreign and same-epoch puts: %+v; want 4 purged, 2 evicted", st)
	}
	for i := 0; i < 4; i++ {
		if res, ok := c.lookup(key("a", 1, i, i+1)); !ok || res.Length != 1 {
			t.Fatalf("live entry a@1/%d lost: %+v, %v", i, res, ok)
		}
		if c.peek(key("a", 0, i, i+1)) {
			t.Fatalf("stale entry a@0/%d still occupies a slot", i)
		}
	}
}

func TestCacheShardSpread(t *testing.T) {
	c := newRouteCache(1024, 8)
	for i := 0; i < 256; i++ {
		c.put(key(fmt.Sprintf("d%d", i%4), 0, i, i+1), core.Result{})
	}
	occupied := 0
	for _, sh := range c.shards {
		if sh.live > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("256 keys landed in %d shard(s); sharding is not spreading", occupied)
	}
}

// lookup is get returning the result.
func (c *routeCache) lookup(k cacheKey) (core.Result, bool) {
	var res core.Result
	hit := c.get(k, &res)
	return res, hit
}

// peek reports whether k occupies a slot, without touching recency or
// counters.
func (c *routeCache) peek(k cacheKey) bool {
	sh, at := c.locate(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, sl := range sh.set(at) {
		if sl.tick != 0 && sl.key == k {
			return true
		}
	}
	return false
}

func (c *routeCache) capacity() int {
	n := 0
	for _, sh := range c.shards {
		n += int(sh.sets) * sh.ways
	}
	return n
}

// TestCacheMatchesModel drives random gets, puts and epoch bumps over 3
// deployments and every algorithm against a map of the last value put
// per exact key. Every put stores a distinct Length, so a hit that
// crossed an epoch, a deployment or an algorithm returns a value the
// model does not hold for the probed key.
func TestCacheMatchesModel(t *testing.T) {
	for _, tc := range []struct{ size, shards int }{{12, 4}, {64, 4}, {200, 3}, {1024, 16}} {
		t.Run(fmt.Sprintf("%d/%d", tc.size, tc.shards), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(tc.size), uint64(tc.shards)))
			c := newRouteCache(tc.size, tc.shards)
			model := map[cacheKey]float64{}
			var epochs [3]uint64
			var gets, inserts int64
			randKey := func() cacheKey {
				dep := rng.IntN(len(epochs))
				epoch := epochs[dep]
				if epoch > 0 && rng.IntN(4) == 0 {
					epoch-- // probe the previous epoch too
				}
				return cacheKey{epoch: epoch, src: topo.NodeID(rng.IntN(10)), dst: topo.NodeID(rng.IntN(10)),
					dep: uint32(dep), alg: uint32(rng.IntN(numAlgorithms))}
			}
			for op := 0; op < 20000; op++ {
				switch r := rng.IntN(1000); {
				case r < 550:
					k := randKey()
					gets++
					res, hit := c.lookup(k)
					want, ok := model[k]
					if hit && (!ok || res.Length != want) {
						t.Fatalf("op %d: get(%+v) hit %v; model has %v, %v", op, k, res.Length, want, ok)
					}
				case r < 980:
					k := randKey()
					if !c.peek(k) {
						inserts++
					}
					v := float64(op)
					res := core.Result{Delivered: op%3 == 0, Reason: core.DropReason(op % 3), Length: v}
					res.PhaseHops[core.PhaseGreedy] = op
					c.put(k, res)
					model[k] = v
					got, hit := c.lookup(k)
					gets++
					if !hit || got.Delivered != res.Delivered || got.Reason != res.Reason ||
						got.Length != v || got.PhaseHops != res.PhaseHops {
						t.Fatalf("op %d: get right after put = %+v, %v; want %+v", op, got, hit, res)
					}
				default:
					epochs[rng.IntN(len(epochs))]++
				}
				st := c.stats()
				if st.hits+st.misses != gets {
					t.Fatalf("op %d: hits %d + misses %d != gets %d", op, st.hits, st.misses, gets)
				}
				if n := c.len(); int64(n) != inserts-st.evicted-st.purged || n > c.capacity() {
					t.Fatalf("op %d: len %d; inserts %d evicted %d purged %d capacity %d",
						op, n, inserts, st.evicted, st.purged, c.capacity())
				}
			}
			if c.stats().evicted == 0 || c.stats().purged == 0 {
				t.Fatalf("model run never evicted or purged: %+v", c.stats())
			}
		})
	}
}

// TestCacheConcurrentStorm races gets, puts and puts at a newer epoch
// that reclaim stale slots from several goroutines (run it under
// -race). Every value encodes its key, so a
// torn or crossed slot shows up as a hit with the wrong value; after the
// storm the counters add up and every shard's live count matches its
// occupied slots.
func TestCacheConcurrentStorm(t *testing.T) {
	c := newRouteCache(256, 4)
	const workers, ops = 4, 5000
	val := func(k cacheKey) float64 {
		return float64(k.src) + 1e3*float64(k.dst) + 1e6*float64(k.dep) + 1e7*float64(k.alg)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := cacheKey{src: topo.NodeID(i % 97), dst: topo.NodeID(w), dep: uint32(i % 3), alg: uint32(i % numAlgorithms)}
				switch i % 10 {
				case 0:
					newer := k
					newer.epoch = 1
					c.put(newer, core.Result{Length: val(k)})
				case 1, 2, 3:
					c.put(k, core.Result{Length: val(k)})
				default:
					if res, hit := c.lookup(k); hit && res.Length != val(k) {
						t.Errorf("get(%+v) = %v; want %v", k, res.Length, val(k))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.stats(); st.hits+st.misses != workers*ops*6/10 {
		t.Fatalf("hits %d + misses %d != %d gets", st.hits, st.misses, workers*ops*6/10)
	}
	for i, sh := range c.shards {
		occupied := 0
		for _, sl := range sh.slots {
			if sl.tick != 0 {
				occupied++
			}
		}
		if sh.live != occupied {
			t.Fatalf("shard %d: live %d, %d occupied slots", i, sh.live, occupied)
		}
	}
}

// TestCacheSlotSize keeps a slot within its 72-byte budget: the default
// cache holds 65,536 of them once every shard is in use.
func TestCacheSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(cacheSlot{}); n > 72 {
		t.Fatalf("cacheSlot is %d bytes; want ≤ 72", n)
	}
}

// TestRouteCacheAllocs pins the operations of a warm cache at zero
// allocations: a hit, a miss, a put that evicts, and a put that
// reclaims a stale slot. A shard allocates its slots on its first put,
// so the test first puts keys until every shard holds slots.
func TestRouteCacheAllocs(t *testing.T) {
	c := newRouteCache(64, 2)
	for i := 0; slices.ContainsFunc(c.shards, func(sh *cacheShard) bool { return sh.slots == nil }); i++ {
		c.put(cacheKey{src: topo.NodeID(i), dep: 4}, core.Result{})
	}
	hit := cacheKey{src: 1, dst: 2}
	c.put(hit, core.Result{Delivered: true})
	miss := cacheKey{src: 3, dst: 4, dep: 1}
	var i int
	for name, op := range map[string]func(){
		"hit":     func() { c.lookup(hit) },
		"miss":    func() { c.lookup(miss) },
		"put":     func() { i++; c.put(cacheKey{src: topo.NodeID(i), dep: 2}, core.Result{Length: 1}) },
		"reclaim": func() { i++; c.put(cacheKey{epoch: uint64(i), dep: 3}, core.Result{}) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op; want 0", name, allocs)
		}
	}
	if c.stats().evicted == 0 || c.stats().purged == 0 {
		t.Fatalf("the put loops never evicted or never reclaimed: %+v", c.stats())
	}
}

// TestRouteCacheLazyShards checks that a new cache holds no slots, that
// a get on a shard without slots is a miss, and that a put allocates
// the slots of its own shard only.
func TestRouteCacheLazyShards(t *testing.T) {
	c := newRouteCache(0, 0)
	k := cacheKey{src: 1, dst: 2}
	if _, hit := c.lookup(k); hit {
		t.Fatal("a new cache hit")
	}
	warm := func() (n int) {
		for _, sh := range c.shards {
			if sh.slots != nil {
				n++
			}
		}
		return n
	}
	if n := warm(); n != 0 {
		t.Fatalf("a new cache has %d shards with slots; want 0", n)
	}
	c.put(k, core.Result{Delivered: true})
	if res, hit := c.lookup(k); !hit || !res.Delivered {
		t.Fatalf("lookup after put = %+v, %v", res, hit)
	}
	if n := warm(); n != 1 {
		t.Fatalf("one put left %d shards with slots; want 1", n)
	}
	if st := c.stats(); st.hits != 1 || st.misses != 1 || c.len() != 1 {
		t.Fatalf("stats %+v, len %d; want 1 hit, 1 miss, 1 entry", st, c.len())
	}
}

func BenchmarkRouteCacheHit(b *testing.B) {
	c := newRouteCache(0, 0)
	keys := make([]cacheKey, 1024)
	for i := range keys {
		keys[i] = cacheKey{src: topo.NodeID(i), dst: topo.NodeID(i * 7), alg: uint32(i % numAlgorithms)}
		c.put(keys[i], core.Result{Delivered: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.lookup(keys[i%len(keys)])
	}
}

// BenchmarkRouteCachePutEvict inserts distinct keys into a full cache,
// so every put evicts.
func BenchmarkRouteCachePutEvict(b *testing.B) {
	c := newRouteCache(0, 0)
	for i := 0; i < 4*defaultCacheSize; i++ {
		c.put(cacheKey{epoch: 1, src: topo.NodeID(i)}, core.Result{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.put(cacheKey{epoch: 2, src: topo.NodeID(i)}, core.Result{Delivered: true})
	}
}
