package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionRoundTrip renders a registry with every collector kind
// and re-parses it strictly: every line must be well-formed and every
// value must survive the round trip.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter("test_events_total", "Events seen.")
	g := NewGauge("test_queue_depth", "Live queue depth.")
	f := NewFunc("test_derived", "Computed at scrape time.", KindGauge, func() float64 { return 2.5 })
	h := NewHistogram("test_latency_ns", "Latency in nanoseconds.")
	cv := NewCounterVec("test_requests_total", "Requests by endpoint and code.", "endpoint", "code")
	hv := NewHistogramVec("test_hops", "Hops by algorithm.", "algorithm")
	reg.MustRegister(c, g, f, h, cv, hv)

	c.Add(41)
	c.Inc()
	g.Set(7)
	h.Observe(3)
	h.Observe(1000)
	h.Observe(123456)
	cv.With("route", "200").Add(10)
	cv.With("route", "400").Inc()
	cv.With("batch", "200").Add(5)
	hv.With("SLGF2").Observe(12)
	hv.With("GF").Observe(25)

	text := reg.Text()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText on own exposition: %v\n%s", err, text)
	}
	want := map[string]float64{
		"test_events_total":     42,
		"test_queue_depth":      7,
		"test_derived":          2.5,
		"test_latency_ns_count": 3,
		"test_latency_ns_sum":   124459,
		`test_requests_total{endpoint="route",code="200"}`: 10,
		`test_requests_total{endpoint="route",code="400"}`: 1,
		`test_requests_total{endpoint="batch",code="200"}`: 5,
		`test_hops_count{algorithm="SLGF2"}`:               1,
		`test_hops_sum{algorithm="GF"}`:                    25,
		`test_latency_ns_bucket{le="+Inf"}`:                3,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("series %s missing from exposition\n%s", k, text)
		} else if got != v {
			t.Errorf("series %s = %v, want %v", k, got, v)
		}
	}
}

// TestHistogramBucketsCumulative checks the rendered buckets are
// cumulative with ascending le bounds and that the +Inf bucket equals
// the count.
func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram("test_h", "h")
	for i := int64(0); i < 1000; i++ {
		h.Observe(i * 37)
	}
	var prevLe, prevCum int64 = -1, 0
	var sawInf bool
	h.Collect(func(s Sample) {
		if s.Suffix != "_bucket" {
			return
		}
		le := s.Labels[len(s.Labels)-1].Value
		if le == "+Inf" {
			sawInf = true
			if int64(s.Value) != h.Count() {
				t.Errorf("+Inf bucket = %v, want count %d", s.Value, h.Count())
			}
			return
		}
		var bound int64
		if _, err := fmtSscan(le, &bound); err != nil {
			t.Fatalf("non-integer le %q", le)
		}
		if bound <= prevLe {
			t.Errorf("le bounds not ascending: %d after %d", bound, prevLe)
		}
		if int64(s.Value) < prevCum {
			t.Errorf("bucket counts not cumulative: %v after %d", s.Value, prevCum)
		}
		prevLe, prevCum = bound, int64(s.Value)
	})
	if !sawInf {
		t.Fatal("no +Inf bucket emitted")
	}
	if prevCum != h.Count() {
		t.Errorf("last finite bucket cum %d != count %d", prevCum, h.Count())
	}
}

// fmtSscan is a tiny strconv shim keeping the test free of fmt.Sscan's
// reflect noise.
func fmtSscan(s string, out *int64) (int, error) {
	v, err := parseInt(s)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

func parseInt(s string) (int64, error) {
	var v int64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errBadInt
		}
		v = v*10 + int64(s[i]-'0')
	}
	return v, nil
}

var errBadInt = &badIntErr{}

type badIntErr struct{}

func (*badIntErr) Error() string { return "not an integer" }

// TestRegisterDuplicate pins the unique-name invariant.
func TestRegisterDuplicate(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(NewCounter("dup_total", "x")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewGauge("dup_total", "y")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(NewCounter("bad name", "x")); err == nil {
		t.Fatal("invalid metric name accepted")
	}
}

// TestParseRejectsMalformed feeds the strict parser broken lines.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"# TYPE x counter\nx 1 2 3",               // trailing tokens
		"# TYPE x counter\nx{le=\"1\" 1",          // unterminated label block
		"# TYPE x counter\nx{=\"1\"} 1",           // empty label key
		"# TYPE x counter\nx nope",                // non-numeric value
		"y 1",                                     // sample without TYPE
		"# TYPE x banana\nx 1",                    // unknown kind
		"# TYPE x counter\n# TYPE x counter\nx 1", // duplicate TYPE
		"# TYPE x counter\nx 1\nx 1",              // duplicate series
	}
	for _, doc := range bad {
		if _, err := ParseText(strings.NewReader(doc)); err == nil {
			t.Errorf("parser accepted malformed exposition %q", doc)
		}
	}
	// Escaped quotes inside label values must parse.
	ok := "# TYPE x counter\nx{a=\"he said \\\"hi\\\"\",b=\"2\"} 1"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Errorf("parser rejected valid exposition %q: %v", ok, err)
	}
}

// TestMissingSeries checks the family matcher behind -check-metrics.
func TestMissingSeries(t *testing.T) {
	samples := map[string]float64{
		"wasn_routes_total":                      3,
		`wasn_route_hops_count{algorithm="GF"}`:  1,
		`wasn_route_hops_bucket{algorithm="GF"}`: 1,
	}
	missing := MissingSeries(samples, []string{"wasn_routes_total", "wasn_route_hops", "wasn_nope"})
	if len(missing) != 1 || missing[0] != "wasn_nope" {
		t.Fatalf("missing = %v, want [wasn_nope]", missing)
	}
}

// TestConcurrentObserveAndScrape hammers every collector kind from many
// goroutines while scraping — the -race registry contract.
func TestConcurrentObserveAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter("c_total", "c")
	cv := NewCounterVec("cv_total", "cv", "k")
	hv := NewHistogramVec("hv", "hv", "k")
	g := NewGauge("g", "g")
	reg.MustRegister(c, cv, hv, g)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []string{"a", "b", "c", "d"}
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				k := keys[(w+i)%len(keys)]
				cv.With(k).Inc()
				hv.With(k).Observe(int64(i))
				if i%64 == 0 {
					// Late registration races with scrapes too.
					_ = reg.Text()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, err := ParseText(strings.NewReader(reg.Text())); err != nil {
				t.Errorf("mid-storm exposition unparseable: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Load(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	text := reg.Text()
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("final exposition unparseable: %v", err)
	}
	var cvSum float64
	for k, v := range samples {
		if strings.HasPrefix(k, "cv_total{") {
			cvSum += v
		}
	}
	if cvSum != workers*iters {
		t.Fatalf("cv children sum to %v, want %d", cvSum, workers*iters)
	}
}
