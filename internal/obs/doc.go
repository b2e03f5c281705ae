// Package obs is the observability layer: a lock-free metrics registry
// with Prometheus-style text exposition, shared by the serving stack
// (internal/serve registers per-endpoint, per-algorithm, and
// per-deployment series) and the CLI (wasnd serves the registry at
// /metrics and verifies scrapes with -check-metrics). Its event journal
// is what workload reports and sweep curves embed.
//
// # Design
//
// Three primitive collectors — Counter, Gauge, and Histogram (the
// log-bucketed metrics.Histogram behind the exposition) — plus their
// labeled families (CounterVec, GaugeVec, HistogramVec) and Func for
// values computed at scrape time, all behind the common Collector
// interface. Observation is wait-free: counters and gauges are single
// atomic adds, histograms are the atomic bucket increments of
// metrics.Histogram. The registry and the label-family children are
// copy-on-write: registration and first-use of a label tuple take a
// mutex, but the hot path (observing through a held pointer, or a
// Vec.With on an existing tuple) only loads an atomic pointer. Callers
// on allocation-free paths resolve their children once at setup and
// hold the concrete pointers.
//
// # Exposition
//
// Registry.WriteText renders the Prometheus text format (version
// 0.0.4): one # HELP and # TYPE header per family followed by its
// samples, families sorted by name, label tuples sorted within a
// family. Histograms render cumulative _bucket{le="..."} samples over
// their non-empty buckets plus the +Inf bucket, _sum, and _count.
// ParseText is the strict inverse used by tests and the wasnd
// -check-metrics CI gate.
package obs
