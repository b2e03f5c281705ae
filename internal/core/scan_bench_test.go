package core

import (
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// benchScanRoute measures full routes through either the packed
// structure-of-arrays scans or the straight-line reference scans, on
// the same FA-600 deployment as the root route benchmarks — the
// packed/reference delta is the isolated cost of the scan strategy,
// everything else being shared.
func benchScanRoute(b *testing.B, alg string, reference bool) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelFA, 600, 11))
	if err != nil {
		b.Fatal(err)
	}
	net := dep.Net
	var r Router
	switch alg {
	case "lgf":
		r = NewLGF(net)
	case "slgf2":
		m, _, _ := BuildSubstrates(net, true, false, false, nil)
		r = NewSLGF2(net, m)
	default:
		b.Fatalf("unknown alg %q", alg)
	}
	pairs := topo.RoutablePairs(net, 64, 60)
	if len(pairs) == 0 {
		b.Fatal("no routable pairs")
	}
	setReferenceScans(reference)
	defer setReferenceScans(false)
	buf := make([]topo.NodeID, 0, 4*net.N())
	for _, p := range pairs {
		res := r.RouteInto(p[0], p[1], buf)
		buf = res.Path[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		res := r.RouteInto(p[0], p[1], buf)
		buf = res.Path[:0]
	}
}

func BenchmarkScanPackedLGF(b *testing.B)      { benchScanRoute(b, "lgf", false) }
func BenchmarkScanReferenceLGF(b *testing.B)   { benchScanRoute(b, "lgf", true) }
func BenchmarkScanPackedSLGF2(b *testing.B)    { benchScanRoute(b, "slgf2", false) }
func BenchmarkScanReferenceSLGF2(b *testing.B) { benchScanRoute(b, "slgf2", true) }
