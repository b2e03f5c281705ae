package main

import (
	"math"
	"sort"
	"time"

	"github.com/straightpath/wasn/internal/serve"
)

// thinned keeps an evenly thinned sample of a stream: every value
// until it holds limit, then, each time it fills, every other value it
// kept and from then on one value in stride. Memory stays bounded
// however fast the loop runs, and a stationary stream keeps its shape.
type thinned[T any] struct {
	vals   []T
	stride int64
	skip   int64
}

// next is called once per value of the stream and reports whether that
// value is to be kept.
func (t *thinned[T]) next() bool {
	if t.skip > 0 {
		t.skip--
		return false
	}
	if t.stride == 0 {
		t.stride = 1
	}
	t.skip = t.stride - 1
	return true
}

// keep stores a value next chose, thinning at limit values.
func (t *thinned[T]) keep(v T, limit int) {
	t.vals = append(t.vals, v)
	if len(t.vals) < limit {
		return
	}
	kept := t.vals[:0]
	for i := 0; i < len(t.vals); i += 2 {
		kept = append(kept, t.vals[i])
	}
	t.vals = kept
	t.stride *= 2
	t.skip = t.stride - 1
}

// recorder keeps the durations of one kind of call: the count and sum
// of all of them, and a thinned sample (at most 2 MiB) for percentiles.
type recorder struct {
	kept thinned[int64]
	n    int64
	sum  int64
}

func (r *recorder) add(d time.Duration) {
	r.n++
	r.sum += int64(d)
	if r.kept.next() {
		r.kept.keep(int64(d), 1<<18)
	}
}

// quantileUS is the q-quantile of the observations of rs together, in
// microseconds. Each kept sample stands for stride observations.
func quantileUS(q float64, rs ...*recorder) float64 {
	type wv struct{ v, w int64 }
	var all []wv
	var total int64
	for _, r := range rs {
		for _, v := range r.kept.vals {
			all = append(all, wv{v, r.kept.stride})
		}
		total += int64(len(r.kept.vals)) * r.kept.stride
	}
	if total == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	vals := make([]float64, len(all))
	weights := make([]int64, len(all))
	for i, x := range all {
		vals[i], weights[i] = float64(x.v)/1e3, x.w
	}
	return weightedQuantile(vals, weights, q)
}

// weightedQuantile is the nearest-rank quantile of sorted vals, where
// vals[i] occurs weights[i] times: the smallest value with at least a
// share q of the total weight at or below it.
func weightedQuantile(vals []float64, weights []int64, q float64) float64 {
	var total int64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, w := range weights {
		cum += w
		if cum >= rank {
			return vals[i]
		}
	}
	return vals[len(vals)-1]
}

// quantile is the nearest-rank quantile of unweighted values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ones := make([]int64, len(s))
	for i := range ones {
		ones[i] = 1
	}
	return weightedQuantile(s, ones, q)
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// frac is a/b, and 0 when nothing was counted.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally is what one closed-loop client counts.
type tally struct {
	calls, failed              int64
	routes, delivered, hopsSum int64
	lat                        recorder
	samples                    thinned[sample]
}

// sampleLimit bounds the responses one client keeps for checking.
const sampleLimit = 4096

// sample is one checked response: the request, what the service
// answered, and the index of the schedule state it was answered in.
type sample struct {
	req   serve.RouteRequest
	resp  serve.RouteResponse
	state int
}

func (t *tally) merge(o *tally) {
	t.calls += o.calls
	t.failed += o.failed
	t.routes += o.routes
	t.delivered += o.delivered
	t.hopsSum += o.hopsSum
	t.samples.vals = append(t.samples.vals, o.samples.vals...)
}

// countRoute adds one successful route query to the tally.
func (t *tally) countRoute(delivered bool, hops int) {
	t.routes++
	if delivered {
		t.delivered++
		t.hopsSum += int64(hops)
	}
}
