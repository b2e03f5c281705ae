package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

var updateRoutes = flag.Bool("update-routes", false, "rewrite testdata/routes.golden from the current routers")

// goldenPairs is the number of seeded (src, dst) pairs routed per
// network state.
const goldenPairs = 32

// TestRoutesGolden pins every route of all seven routers, byte for byte,
// on IA-, FA- and OB-800-42: fresh, then after each step of a fixed
// fail/revive/move sequence repaired through RepairSubstrates and
// RepairSubstratesMoved. Each route is one line: delivered, drop reason,
// hops and an FNV-1a hash of the path; step 0 is the fresh network. A
// refactor of the substrates or the routers must leave the file
// unchanged; regenerate it with -update-routes only for an intended
// change of routing behaviour.
func TestRoutesGolden(t *testing.T) {
	var out bytes.Buffer
	for _, model := range []topo.DeployModel{topo.ModelIA, topo.ModelFA, topo.ModelOB} {
		goldenRoutes(t, &out, model)
	}
	const path = "testdata/routes.golden"
	if *updateRoutes {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < max(len(got), len(exp)) && diffs < 10; i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Errorf("line %d: got %q, want %q", i+1, g, w)
			diffs++
		}
	}
	t.Fatalf("routes differ from %s (%d lines vs %d)", path, len(got), len(exp))
}

// goldenRoutes appends the route lines of one 800-node, seed-42
// deployment through its mutation sequence.
func goldenRoutes(t *testing.T, out *bytes.Buffer, model topo.DeployModel) {
	dep, err := topo.Deploy(topo.DefaultDeployConfig(model, 800, 42))
	if err != nil {
		t.Fatal(err)
	}
	net := dep.Net
	m, b, g := BuildSubstrates(net, true, true, true, nil)
	routers := buildRouterTable(net, m, b, g)
	names := make([]string, 0, len(routers))
	for name := range routers {
		names = append(names, name)
	}
	slices.Sort(names)

	rng := rand.New(rand.NewPCG(42, 0x601de7))
	pairs := make([][2]topo.NodeID, goldenPairs)
	for i := range pairs {
		src := topo.NodeID(rng.IntN(net.N()))
		dst := topo.NodeID(rng.IntN(net.N()))
		for dst == src {
			dst = topo.NodeID(rng.IntN(net.N()))
		}
		pairs[i] = [2]topo.NodeID{src, dst}
	}

	var dead []topo.NodeID
	for step, kind := range []string{"fresh", "fail", "move", "fail", "revive", "move", "fail", "move", "revive", "move"} {
		switch kind {
		case "fail":
			var changed []topo.NodeID
			for len(changed) < 6 {
				u := topo.NodeID(rng.IntN(net.N()))
				if net.Alive(u) {
					net.SetAlive(u, false)
					changed = append(changed, u)
				}
			}
			dead = append(dead, changed...)
			RepairSubstrates(m, b, g, changed)
		case "revive":
			changed := dead[:len(dead)/2]
			for _, u := range changed {
				net.SetAlive(u, true)
			}
			RepairSubstrates(m, b, g, changed)
			dead = slices.Clone(dead[len(dead)/2:])
		case "move":
			moves := make([]topo.Move, 0, 12)
			for len(moves) < cap(moves) {
				u := topo.NodeID(rng.IntN(net.N()))
				p := net.Pos(u)
				np := geom.Pt(p.X+rng.NormFloat64()*8, p.Y+rng.NormFloat64()*8)
				if len(moves) == 0 {
					// One teleport per batch reshapes a far region.
					np = geom.Pt(net.Field.Min.X+rng.Float64()*net.Field.Width(),
						net.Field.Min.Y+rng.Float64()*net.Field.Height())
				}
				np.X = min(max(np.X, net.Field.Min.X), net.Field.Max.X)
				np.Y = min(max(np.Y, net.Field.Min.Y), net.Field.Max.Y)
				moves = append(moves, topo.Move{Node: u, X: np.X, Y: np.Y})
			}
			dirty, err := net.SetPositions(moves)
			if err != nil {
				t.Fatal(err)
			}
			RepairSubstratesMoved(m, b, g, dirty)
		}
		for _, p := range pairs {
			for _, name := range names {
				res := routers[name].Route(p[0], p[1])
				h := fnv.New32a()
				for _, v := range res.Path {
					fmt.Fprintf(h, "%d,", v)
				}
				fmt.Fprintf(out, "%s %d %s %d>%d %v %v %d %08x\n",
					model, step, name, p[0], p[1], res.Delivered, res.Reason, res.Hops(), h.Sum32())
			}
		}
	}
}
