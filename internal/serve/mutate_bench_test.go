package serve

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/topo"
)

// BenchmarkServeMutate times fail, revive and move mutations of
// FA-800-42 — the benchmark workloads' network — through Service.Mutate
// under its writer lock, and reports per kind the whole call (total)
// and how it splits into fold (the state fold), clone (network and
// substrates), apply (the mutation on the clone's network), repair (the
// incremental substrate repair) and publish (router set and store);
// what total holds beyond the five is the range check, the metrics and
// the journal. The cases:
//
//   - fail, revive: 4 random nodes, every fail undone by the revive
//     that follows it;
//   - move: the same 4 nodes drifting σ = 10 m and back;
//   - move16: the shape of the benchmark's churn-mixed move, 16 moves:
//     the 8 nodes the previous batch drifted are sent home and 8 other
//     nodes drift (σ = 2 m, clamped to the field) from theirs.
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
	net := v0.net
	rng := rand.New(rand.NewPCG(42, 7))
	victims := make([]topo.NodeID, 4)
	back := make([]topo.Move, 4)
	there := make([]topo.Move, 4)
	for i := range victims {
		u := topo.NodeID(rng.IntN(net.N()))
		victims[i] = u
		p := net.Pos(u)
		back[i] = topo.Move{Node: u, X: p.X, Y: p.Y}
		there[i] = topo.Move{Node: u, X: p.X + 10*rng.NormFloat64(), Y: p.Y + 10*rng.NormFloat64()}
	}
	home := net.Positions()
	var drifted []topo.NodeID
	perfbenchMove := func() Mutation {
		moves := make([]topo.Move, 0, 16)
		for _, u := range drifted {
			moves = append(moves, topo.Move{Node: u, X: home[u].X, Y: home[u].Y})
		}
		prev := drifted
		drifted = nil
		for len(drifted) < 8 {
			u := topo.NodeID(rng.IntN(net.N()))
			if !slices.Contains(prev, u) && !slices.Contains(drifted, u) {
				drifted = append(drifted, u)
			}
		}
		for _, u := range drifted {
			p := home[u]
			moves = append(moves, topo.Move{Node: u,
				X: min(max(p.X+2*rng.NormFloat64(), net.Field.Min.X), net.Field.Max.X),
				Y: min(max(p.Y+2*rng.NormFloat64(), net.Field.Min.Y), net.Field.Max.Y)})
		}
		return Mutation{Kind: MutationMove, Moves: moves}
	}
	steps := []struct {
		name string
		next func() Mutation
	}{
		{"fail", func() Mutation { return Mutation{Kind: MutationFail, Nodes: victims} }},
		{"revive", func() Mutation { return Mutation{Kind: MutationRevive, Nodes: victims} }},
		{"move", func() Mutation { return Mutation{Kind: MutationMove, Moves: there} }},
		{"move", func() Mutation { return Mutation{Kind: MutationMove, Moves: back} }},
		{"move16", perfbenchMove},
	}
	kinds := []string{"fail", "revive", "move", "move16"}
	// Per kind: fold, clone, apply, repair, publish, total; and the runs.
	spent := map[string]*[6]time.Duration{}
	runs := map[string]float64{}
	for _, k := range kinds {
		spent[k] = new([6]time.Duration)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range steps {
			m := st.next()
			d.wmu.Lock()
			t0 := time.Now()
			changed, stages, err := s.mutateLocked(d, m, "")
			total := time.Since(t0)
			d.wmu.Unlock()
			if err != nil || !changed {
				b.Fatalf("%s: changed %v, err %v", st.name, changed, err)
			}
			sp := spent[st.name]
			for k, dt := range []time.Duration{stages.fold, stages.clone, stages.apply, stages.repair, stages.publish, total} {
				sp[k] += dt
			}
			runs[st.name]++
		}
	}
	b.StopTimer()
	for _, k := range kinds {
		for j, stage := range []string{"fold", "clone", "apply", "repair", "publish", "total"} {
			b.ReportMetric(float64(spent[k][j].Nanoseconds())/1e3/runs[k], k+"_"+stage+"_us")
		}
	}
}
