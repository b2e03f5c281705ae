// Dynamic: local minima are not only deployment holes — node failures
// create them at runtime (§1 lists failures, jamming, power exhaustion).
// This example streams packets while nodes on the active path randomly
// fail, repairing every routing substrate incrementally after each
// failure (Sim.Fail: safety relabeling seeded from the failure
// neighborhood, local BOUNDHOLE re-analysis, planar row recomputation),
// and shows SLGF2 re-routing around the growing hole.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	wasn "github.com/straightpath/wasn"
	"github.com/straightpath/wasn/internal/topo"
)

func main() {
	dep, err := wasn.Deploy(wasn.IA, 700, 7)
	if err != nil {
		log.Fatal(err)
	}
	net := dep.Net
	sim, err := wasn.NewSim(dep)
	if err != nil {
		log.Fatal(err)
	}

	labels, _ := topo.Components(net)
	var src, dst wasn.NodeID = -1, -1
	for s := 0; s < net.N() && src < 0; s++ {
		for d := net.N() - 1; d > s; d-- {
			if labels[s] >= 0 && labels[s] == labels[d] && net.Dist(topo.NodeID(s), topo.NodeID(d)) > 150 {
				src, dst = wasn.NodeID(s), wasn.NodeID(d)
				break
			}
		}
	}
	if src < 0 {
		log.Fatal("no suitable pair")
	}

	rng := rand.New(rand.NewPCG(1, 2))
	fmt.Printf("routing %d -> %d under failures\n\n", src, dst)
	fmt.Printf("%5s %6s %10s %9s %s\n", "round", "hops", "length(m)", "relabel", "failed nodes")

	for round := 1; round <= 8; round++ {
		res := sim.Route(wasn.SLGF2, src, dst)
		if !res.Delivered {
			fmt.Printf("%5d  undeliverable (%v) — the failure hole severed the pair\n",
				round, res.Reason)
			break
		}

		// Fail 1-2 random relays of the path just used (not the
		// endpoints), as if forwarding drained them.
		var failed []wasn.NodeID
		picked := map[wasn.NodeID]bool{}
		relays := res.Path[1 : len(res.Path)-1]
		for len(failed) < 2 && len(relays) > 0 {
			v := relays[rng.IntN(len(relays))]
			if v != src && v != dst && net.Alive(v) && !picked[v] {
				picked[v] = true
				failed = append(failed, v)
			}
			if len(failed) >= len(relays) {
				break
			}
		}
		// Incremental repair of every substrate; equivalent to — and
		// roughly an order of magnitude cheaper than — rebuilding the Sim.
		before := sim.Safety.Cost.Messages
		sim.Fail(failed...)
		repair := sim.Safety.Cost.Messages - before

		fmt.Printf("%5d %6d %10.1f %9d %v\n",
			round, res.Hops(), res.Length, repair, failed)
	}

	alive := len(net.AliveIDs())
	fmt.Printf("\n%d of %d nodes still alive\n", alive, net.N())
}
