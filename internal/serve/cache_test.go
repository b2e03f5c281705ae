package serve

import (
	"fmt"
	"math/rand/v2"
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
	if _, ok := c.get(k); ok {
		t.Fatal("get on empty cache hit")
	}
	c.put(k, core.Result{Delivered: true, Length: 42})
	res, ok := c.get(k)
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
	if _, ok := c.get(key("d", 0, 0, 1)); !ok {
		t.Fatal("expected entry 0 present")
	}
	c.put(key("d", 0, 9, 10), core.Result{})
	if _, ok := c.get(key("d", 0, 1, 2)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, ok := c.get(key("d", 0, 0, 1)); !ok {
		t.Fatal("recently used entry 0 was evicted")
	}
	if c.stats().evicted != 1 {
		t.Fatalf("evicted = %d; want 1", c.stats().evicted)
	}
}

func TestCacheEpochMakesEntriesUnreachable(t *testing.T) {
	c := newRouteCache(8, 2)
	c.put(key("d", 0, 1, 2), core.Result{Delivered: true})
	if _, ok := c.get(key("d", 1, 1, 2)); ok {
		t.Fatal("epoch-1 get hit an epoch-0 entry")
	}
}

func TestCachePurgeDeployment(t *testing.T) {
	c := newRouteCache(64, 4)
	for i := 0; i < 10; i++ {
		c.put(key("a", 0, i, i+1), core.Result{})
		c.put(key("b", 0, i, i+1), core.Result{})
	}
	c.purgeDeployment(depID("a"))
	if got := c.len(); got != 10 {
		t.Fatalf("len after purge = %d; want 10", got)
	}
	if c.stats().purged != 10 {
		t.Fatalf("purged = %d; want 10", c.stats().purged)
	}
	for i := 0; i < 10; i++ {
		if _, ok := c.get(key("a", 0, i, i+1)); ok {
			t.Fatalf("purged entry a/%d still present", i)
		}
		if _, ok := c.get(key("b", 0, i, i+1)); !ok {
			t.Fatalf("unrelated entry b/%d was purged", i)
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

// peek reports whether k occupies a slot, without touching recency or
// counters.
func (c *routeCache) peek(k cacheKey) bool {
	_, set := c.locate(k)
	for _, sl := range set {
		if sl.tick != 0 && sl.key == k {
			return true
		}
	}
	return false
}

func (c *routeCache) capacity() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.slots)
	}
	return n
}

// TestCacheMatchesModel drives random gets, puts, purges and epoch bumps
// over 3 deployments and every algorithm against a map of the last value
// put per exact key. Every put stores a distinct Length, so a hit that
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
					res, hit := c.get(k)
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
					got, hit := c.get(k)
					gets++
					if !hit || got.Delivered != res.Delivered || got.Reason != res.Reason ||
						got.Length != v || got.PhaseHops != res.PhaseHops {
						t.Fatalf("op %d: get right after put = %+v, %v; want %+v", op, got, hit, res)
					}
				case r < 982:
					dep := rng.IntN(len(epochs))
					c.purgeDeployment(uint32(dep))
					for k := range model {
						if k.dep == uint32(dep) {
							delete(model, k)
						}
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

// TestCacheConcurrentStorm races gets, puts and purges from several
// goroutines (run it under -race). Every value encodes its key, so a
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
					c.purgeDeployment(uint32(w % 3))
				case 1, 2, 3:
					c.put(k, core.Result{Length: val(k)})
				default:
					if res, hit := c.get(k); hit && res.Length != val(k) {
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
// cache preallocates 65,536 of them.
func TestCacheSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(cacheSlot{}); n > 72 {
		t.Fatalf("cacheSlot is %d bytes; want ≤ 72", n)
	}
}

// TestRouteCacheAllocs pins the cache's operations at zero allocations:
// a hit, a miss, a put that evicts, and a purge.
func TestRouteCacheAllocs(t *testing.T) {
	c := newRouteCache(64, 2)
	hit := cacheKey{src: 1, dst: 2}
	c.put(hit, core.Result{Delivered: true})
	miss := cacheKey{src: 3, dst: 4, dep: 1}
	var i int
	for name, op := range map[string]func(){
		"hit":   func() { c.get(hit) },
		"miss":  func() { c.get(miss) },
		"put":   func() { i++; c.put(cacheKey{src: topo.NodeID(i), dep: 2}, core.Result{Length: 1}) },
		"purge": func() { c.purgeDeployment(2) },
	} {
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op; want 0", name, allocs)
		}
	}
	if c.stats().evicted == 0 {
		t.Fatal("the put loop never evicted")
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
		c.get(keys[i%len(keys)])
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

// BenchmarkRouteCachePurge times 6,400 puts into one deployment and its
// purge, against a default-size cache holding another deployment too.
func BenchmarkRouteCachePurge(b *testing.B) {
	c := newRouteCache(0, 0)
	for i := 0; i < 6400; i++ {
		c.put(cacheKey{src: topo.NodeID(i), dep: 1}, core.Result{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 6400; j++ {
			c.put(cacheKey{src: topo.NodeID(j), dst: topo.NodeID(i)}, core.Result{})
		}
		c.purgeDeployment(0)
	}
}
