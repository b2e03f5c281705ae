package bound

import (
	"slices"
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// refAssemble replays the reference walks in the discovery order
// with an independent map-based transitive dedup — every emitted cycle
// claims its directed edges whether kept or dropped — and returns the
// kept cycles plus whether a phantom chain occurred: a cycle that shares
// no edge with any earlier KEPT hole but does share one with an earlier
// DROPPED duplicate. The pre-fix dedup (only kept holes claimed edges)
// wrongly kept exactly those cycles as phantom second holes.
func refAssemble(recs []refNode) (kept [][]topo.NodeID, phantomChain bool) {
	claimed := map[[2]topo.NodeID]bool{}
	keptClaimed := map[[2]topo.NodeID]bool{}
	for i := range recs {
		for _, cycle := range recs[i].cycles {
			if len(cycle) < 3 {
				continue
			}
			dupAny, dupKept := false, false
			for i2 := range cycle {
				e := [2]topo.NodeID{cycle[i2], cycle[(i2+1)%len(cycle)]}
				dupAny = dupAny || claimed[e]
				dupKept = dupKept || keptClaimed[e]
			}
			for i2 := range cycle {
				e := [2]topo.NodeID{cycle[i2], cycle[(i2+1)%len(cycle)]}
				claimed[e] = true
			}
			if dupAny {
				if !dupKept {
					phantomChain = true
				}
				continue
			}
			for i2 := range cycle {
				e := [2]topo.NodeID{cycle[i2], cycle[(i2+1)%len(cycle)]}
				keptClaimed[e] = true
			}
			kept = append(kept, cycle)
		}
	}
	return kept, phantomChain
}

func requireRefMatch(t *testing.T, b *Boundaries, wantPhantom bool) {
	t.Helper()
	kept, phantom := refAssemble(refRecs(b.net))
	if len(kept) != len(b.Holes) {
		t.Fatalf("derived %d holes; transitive-dedup reference keeps %d", len(b.Holes), len(kept))
	}
	for i, h := range b.Holes {
		if !slices.Equal(h.Cycle, kept[i]) {
			t.Fatalf("hole %d cycle %v; reference %v", i, h.Cycle, kept[i])
		}
	}
	if wantPhantom && !phantom {
		t.Fatal("scenario no longer exercises a phantom duplicate chain; pick a new seed")
	}
}

// TestNoPhantomDuplicateHoles is the regression pin for the BOUNDHOLE
// dedup bug: with edge claims restricted to kept holes, a hole re-traced
// from a third stuck direction — sharing edges only with an already
// dropped duplicate — was emitted again as a phantom second hole. The
// obstacle-field seeds here are ones where that chain occurs (the
// pre-fix dedup kept 25 resp. phantom-extra holes); the derived hole
// set must agree with an independent transitive dedup, cycle for
// cycle, on the initial build and across liveness churn.
func TestNoPhantomDuplicateHoles(t *testing.T) {
	// Initial-build phantom: OB n=110 seed=2 (pre-fix: 25 holes, 2 phantom).
	dep, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelOB, 110, 2))
	if err != nil {
		t.Fatal(err)
	}
	b := FindHoles(dep.Net)
	requireRefMatch(t, b, true)

	// Churn-path phantom: OB n=80 seed=4 diverges only after killing
	// node 26 and repairing.
	dep2, err := topo.Deploy(topo.DefaultDeployConfig(topo.ModelOB, 80, 4))
	if err != nil {
		t.Fatal(err)
	}
	b2 := FindHoles(dep2.Net)
	dep2.Net.SetAlive(26, false)
	b2.Repair([]topo.NodeID{26})
	requireRefMatch(t, b2, true)
}
