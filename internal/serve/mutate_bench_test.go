package serve

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/topo"
)

// BenchmarkServeMutate times fail, revive and move mutations of
// FA-800-42 — the benchmark workloads' network — through the steps of
// Service.Mutate, and reports how each splits into clone (network and
// substrates), apply (the mutation on the clone's network), repair (the
// incremental substrate repair) and publish (router set and store).
// Every fail is undone by the revive that follows it, and every move
// batch by one moving the nodes back, so the state stays the same.
func BenchmarkServeMutate(b *testing.B) {
	s := New(Config{})
	name, err := s.Deploy("", Spec{Model: topo.ModelFA, N: 800, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	d, err := s.lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	v0, err := s.ensureBuilt(d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 7))
	victims := make([]topo.NodeID, 4)
	back := make([]topo.Move, 4)
	there := make([]topo.Move, 4)
	for i := range victims {
		u := topo.NodeID(rng.IntN(v0.net.N()))
		victims[i] = u
		p := v0.net.Pos(u)
		back[i] = topo.Move{Node: u, X: p.X, Y: p.Y}
		there[i] = topo.Move{Node: u, X: p.X + 10*rng.NormFloat64(), Y: p.Y + 10*rng.NormFloat64()}
	}
	steps := []struct {
		name string
		m    Mutation
	}{
		{"fail", Mutation{Kind: MutationFail, Nodes: victims}},
		{"revive", Mutation{Kind: MutationRevive, Nodes: victims}},
		{"move", Mutation{Kind: MutationMove, Moves: there}},
		{"move", Mutation{Kind: MutationMove, Moves: back}},
	}
	var spent [4][4]time.Duration // per step: clone, apply, repair, publish
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, st := range steps {
			old := d.cur.Load()
			state := old.state
			eff := state.apply(st.m)
			t0 := time.Now()
			v := old.clone()
			v.state = state
			t1 := time.Now()
			dirty, err := applyTo(v.net, eff)
			if err != nil {
				b.Fatal(err)
			}
			t2 := time.Now()
			v.repair(st.m.Kind, dirty)
			t3 := time.Now()
			d.publish(v)
			t4 := time.Now()
			for k, dt := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
				spent[j][k] += dt
			}
		}
	}
	b.StopTimer()
	for _, j := range []int{0, 1, 2} {
		runs := float64(b.N)
		if j == 2 { // both move steps
			runs *= 2
			for k := range spent[j] {
				spent[j][k] += spent[3][k]
			}
		}
		for k, phase := range []string{"clone", "apply", "repair", "publish"} {
			b.ReportMetric(float64(spent[j][k].Microseconds())/runs, steps[j].name+"_"+phase+"_us")
		}
	}
}
