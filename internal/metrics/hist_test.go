package metrics

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

func TestHistIndexMonotoneAndInRange(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 31, 32, 63, 64, 100, 1000,
		1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64} {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, idx, histBuckets)
		}
		if idx < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistValueWithinBucketBounds(t *testing.T) {
	for v := int64(0); v < 100000; v += 7 {
		idx := histIndex(v)
		rep := histValue(idx)
		if histIndex(rep) != idx {
			t.Fatalf("histValue(%d) = %d maps back to bucket %d", idx, rep, histIndex(rep))
		}
		if v < histSubs && rep != v {
			t.Fatalf("exact range: histValue(histIndex(%d)) = %d", v, rep)
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for _, v := range []int64{3, 3, 3, 7} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 16 || h.Max() != 7 {
		t.Fatalf("count/sum/max = %d/%d/%d", h.Count(), h.Sum(), h.Max())
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %d; want 3", got)
	}
	if got := h.Quantile(1); got != 7 {
		t.Fatalf("p100 = %d; want 7", got)
	}
}

// TestHistogramQuantileAccuracy pins the log-linear error bound: every
// quantile of a heavy-tailed random sample must be within 1/16 relative
// error of the exact percentile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h Histogram
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Lognormal-ish spread over ~5 decades, like a latency tail.
		v := int64(math.Exp(rng.NormFloat64()*2+8)) + 1
		h.Observe(v)
		samples = append(samples, float64(v))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		exact := nearestRank(sorted, p)
		got := float64(h.Quantile(p / 100))
		if relErr := math.Abs(got-exact) / exact; relErr > 1.0/16 {
			t.Errorf("p%v = %v, exact %v, rel err %.3f > 1/16", p, got, exact, relErr)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("p100 = %d; want exact max %d", h.Quantile(1), h.Max())
	}
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank method: the exact answer the histogram
// quantiles approximate.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(rank, 0)]
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 5000; i++ {
		v := rng.Int64N(1 << 30)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Sum() != all.Sum() || a.Max() != all.Max() {
		t.Fatalf("merge: count/sum/max = %d/%d/%d; want %d/%d/%d",
			a.Count(), a.Sum(), a.Max(), all.Count(), all.Sum(), all.Max())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merge: q%.2f = %d; want %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; run under -race this pins the lock-free recording path.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int64N(1 << 40))
				if i%100 == 0 {
					h.Quantile(0.99) // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d; want %d", h.Count(), workers*per)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample not clamped: count=%d sum=%d", h.Count(), h.Sum())
	}
}
