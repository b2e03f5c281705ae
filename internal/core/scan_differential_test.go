package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// scanTestRouters builds every router over one deployment, returning the
// substrate handles so failure sequences can repair in place.
func scanTestRouters(t *testing.T, model topo.DeployModel, n int, seed uint64) (*topo.Network, []Router, func(changed []topo.NodeID)) {
	t.Helper()
	dep, err := topo.Deploy(topo.DefaultDeployConfig(model, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	m, b, g := BuildSubstrates(net, true, true, true, nil)
	routers := []Router{
		NewGF(net, b),
		NewLGF(net),
		NewSLGF(net, m),
		NewSLGF2(net, m),
		NewGPSR(net, g),
		NewIdeal(net, IdealMinHop),
		NewIdeal(net, IdealMinLength),
	}
	repair := func(changed []topo.NodeID) { RepairSubstrates(m, b, g, changed) }
	return net, routers, repair
}

// TestPackedScansMatchReferenceRoutes is the differential pin of the
// structure-of-arrays scan rewrite: every route computed through the
// packed scans must equal — field for field, hop for hop, length bit
// for bit — the route computed through the straight-line reference
// scans, across IA and FA deployments and through random
// failure/revival sequences, both before the substrates are repaired
// (stale masks, liveness enforced by the bitset alone) and after.
func TestPackedScansMatchReferenceRoutes(t *testing.T) {
	cases := []struct {
		model topo.DeployModel
		n     int
		seed  uint64
	}{
		{topo.ModelIA, 240, 3},
		{topo.ModelIA, 300, 17},
		{topo.ModelFA, 260, 7},
		{topo.ModelFA, 320, 29},
	}
	defer setReferenceScans(false)
	for _, tc := range cases {
		t.Run(tc.model.String(), func(t *testing.T) {
			net, routers, repair := scanTestRouters(t, tc.model, tc.n, tc.seed)
			pairs := topo.RoutablePairs(net, 32, 40)
			if len(pairs) == 0 {
				t.Fatal("no routable pairs")
			}
			compare := func(when string) {
				t.Helper()
				for _, r := range routers {
					for _, p := range pairs {
						setReferenceScans(false)
						fast := r.Route(p[0], p[1])
						setReferenceScans(true)
						ref := r.Route(p[0], p[1])
						setReferenceScans(false)
						if !reflect.DeepEqual(fast, ref) {
							t.Fatalf("%s (%s): %d->%d packed scan route diverged from reference\npacked:    %+v\nreference: %+v",
								r.Name(), when, p[0], p[1], fast, ref)
						}
					}
				}
			}
			compare("fresh deployment")

			rng := rand.New(rand.NewPCG(tc.seed, 0xda3e39cb94b95bdb))
			var dead []topo.NodeID
			for step := 0; step < 8; step++ {
				changed := mutateLiveness(rng, net, &dead)
				if len(changed) == 0 {
					continue
				}
				// Before repair the safety masks are stale; the scans must
				// still agree because both halves test liveness
				// independently of the masks.
				compare("stale substrates")
				repair(changed)
				compare("repaired substrates")
			}
			if len(dead) == 0 {
				t.Fatal("mutation sequence never killed a node")
			}
		})
	}
}

// TestSafeMasksMatchModel pins the packed safety export the scans trust:
// bit z-1 of SafeMasks()[u] must equal Safe(u, z) for every node and
// zone, scanFilter.accept must agree with the model's SafeToward and
// AnySafe predicates, and zoneBit must match ZoneTypeOf — through
// failure/revival sequences with in-place repairs.
func TestSafeMasksMatchModel(t *testing.T) {
	net := deployed(t, topo.ModelFA, 280, 13)
	m, _, _ := BuildSubstrates(net, true, false, false, nil)
	rng := rand.New(rand.NewPCG(13, 0x2545f4914f6cdd1d))

	check := func(step int) {
		t.Helper()
		masks := m.SafeMasks()
		if len(masks) != net.N() {
			t.Fatalf("step %d: len(SafeMasks) = %d, want %d", step, len(masks), net.N())
		}
		toward := scanFilter{masks: masks}
		any := scanFilter{masks: masks, anySafe: true}
		for i := 0; i < net.N(); i++ {
			u := topo.NodeID(i)
			for _, z := range geom.AllZones {
				got := masks[u]&(1<<uint(z-1)) != 0
				if want := m.Safe(u, z); got != want {
					t.Fatalf("step %d: mask bit for node %d zone %d = %v, model says %v", step, u, z, got, want)
				}
			}
			pu := net.Pos(u)
			if got, want := any.accept(geom.Pt(0, 0), u, pu), m.AnySafe(u); got != want {
				t.Fatalf("step %d: anySafe accept(node %d) = %v, model says %v", step, u, got, want)
			}
			// Random destinations exercise all four zone relations plus
			// the candidate-at-destination escape.
			for k := 0; k < 8; k++ {
				d := net.Pos(topo.NodeID(rng.IntN(net.N())))
				if got, want := toward.accept(d, u, pu), m.SafeToward(u, d); got != want {
					t.Fatalf("step %d: accept(node %d toward %v) = %v, SafeToward says %v", step, u, d, got, want)
				}
				if pu != d {
					if got, want := zoneBit(d.X-pu.X, d.Y-pu.Y), uint(geom.ZoneTypeOf(pu, d)-1); got != want {
						t.Fatalf("step %d: zoneBit(%v -> %v) = %d, ZoneTypeOf says %d", step, pu, d, got, want)
					}
				}
			}
		}
	}

	check(-1)
	var dead []topo.NodeID
	for step := 0; step < 10; step++ {
		changed := mutateLiveness(rng, net, &dead)
		if len(changed) == 0 {
			continue
		}
		m.Repair(changed...)
		check(step)
	}
	if len(dead) == 0 {
		t.Fatal("mutation sequence never killed a node")
	}
}

// TestRouteIntoZeroAllocs pins the pooled-scratch contract at zero
// allocations per route for every router once the pools are warm —
// the property the serving hot path depends on. Skipped under the race
// detector, whose sync.Pool deliberately drops puts.
func TestRouteIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	net, routers := poolTestRouters(t)
	pairs := topo.RoutablePairs(net, 8, 40)
	if len(pairs) == 0 {
		t.Fatal("no routable pairs")
	}
	for _, r := range routers {
		t.Run(r.Name(), func(t *testing.T) {
			buf := make([]topo.NodeID, 0, 4*net.N())
			for _, p := range pairs {
				res := r.RouteInto(p[0], p[1], buf)
				buf = res.Path[:0]
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				p := pairs[i%len(pairs)]
				i++
				res := r.RouteInto(p[0], p[1], buf)
				buf = res.Path[:0]
			})
			if avg != 0 {
				t.Errorf("%s: %v allocs/route, want 0", r.Name(), avg)
			}
		})
	}
}

// TestSweepWalkMatchesRowScan pins the rotation walk of sweepScan to the
// row scan of refSweepScan, candidate, delta and slot bit for bit, from
// every node toward many destinations under both hands, with random
// tried marks, liveness, safety masks, distance bounds and confine
// boxes. Besides FA-300-7 it runs on a lattice whose rows are full of
// exact bearing ties, with a few nodes nudged by 1e-14 m so rays and
// bearings land within rounding of the 0/2π seam.
func TestSweepWalkMatchesRowScan(t *testing.T) {
	var pos []geom.Point
	for i := range 14 {
		for j := range 14 {
			p := geom.Pt(float64(i)*10, float64(j)*10)
			switch (i*14 + j) % 9 {
			case 1:
				p.Y += 1e-14
			case 2:
				p.Y -= 1e-14
			}
			pos = append(pos, p)
		}
	}
	lattice, err := topo.NewNetwork(pos, 32, geom.FromCorners(geom.Pt(0, 0), geom.Pt(130, 130)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 0x5eed))
	for _, net := range []*topo.Network{lattice, deployed(t, topo.ModelFA, 300, 7)} {
		for _, u := range rng.Perm(net.N())[:net.N()/5] {
			net.SetAlive(topo.NodeID(u), false)
		}
		masks := make([]uint8, net.N())
		for i := range masks {
			masks[i] = uint8(rng.IntN(16))
		}
		for u := range net.N() {
			for range 6 {
				dst := topo.NodeID(rng.IntN(net.N()))
				if dst == topo.NodeID(u) {
					continue
				}
				st := acquireState(net, topo.NodeID(u), dst)
				base := net.AdjOffset(st.cur)
				for j := range net.AdjacencyRow(st.cur) {
					if rng.IntN(4) == 0 {
						st.tried[base+j] = st.triedGen
					}
				}
				if st.confined = rng.IntN(3) == 0; st.confined {
					c := net.Pos(st.cur)
					st.confine = geom.FromCorners(c, geom.Pt(c.X+rng.NormFloat64()*30, c.Y+rng.NormFloat64()*30))
				}
				for _, f := range []scanFilter{{}, {masks: masks}, {masks: masks, anySafe: true},
					{bounded: true, maxDist: geom.Dist(net.Pos(st.cur), st.dstPos) + rng.NormFloat64()*10}} {
					for _, hand := range []Hand{RightHand, LeftHand} {
						v, d, s := sweepScan(st, hand, f)
						rv, rd, rs := refSweepScan(st, hand, f)
						if v != rv || d != rd || s != rs {
							t.Fatalf("node %d toward %d, hand %v, filter %+v: walk (%d, %v, slot %d); row scan (%d, %v, slot %d)",
								u, dst, hand, f, v, d, s, rv, rd, rs)
						}
					}
				}
				releaseState(st)
			}
		}
	}
}
