package serve

import (
	"fmt"
	"strings"
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

// TestDeploymentStateApplyMatchesMutate folds a history with no-op
// steps (repeated fails, revives of alive nodes, duplicates within a
// batch, an empty move) into a DeploymentState and applies it to a live
// deployment; the fold must equal the exported state after every step,
// epoch included.
func TestDeploymentStateApplyMatchesMutate(t *testing.T) {
	s, name := newTestService(t, Config{})
	if err := s.Build(name); err != nil {
		t.Fatal(err)
	}
	fold := DeploymentState{Name: name, Spec: testSpec}
	history := []Mutation{
		{Kind: MutationFail, Nodes: []topo.NodeID{3}},
		{Kind: MutationFail, Nodes: []topo.NodeID{3}},
		{Kind: MutationRevive, Nodes: []topo.NodeID{7}},
		{Kind: MutationFail, Nodes: []topo.NodeID{9, 4, 9}},
		{Kind: MutationMove, Moves: []topo.Move{{Node: 10, X: 50, Y: 50}, {Node: 4, X: 60, Y: 40}}},
		{Kind: MutationMove},
		{Kind: MutationRevive, Nodes: []topo.NodeID{4, 3, 4, 8}},
		{Kind: MutationMove, Moves: []topo.Move{{Node: 10, X: 55, Y: 45}}},
		{Kind: MutationRevive, Nodes: []topo.NodeID{9}},
	}
	for i, m := range history {
		if err := s.Mutate(name, m, ""); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		before := fold.Epoch
		changed := fold.Apply(m)
		if changed != (fold.Epoch == before+1) {
			t.Fatalf("step %d: Apply changed=%v but epoch %d -> %d", i, changed, before, fold.Epoch)
		}
		got := s.ExportState()[0]
		if fmt.Sprint(fold) != fmt.Sprint(got) {
			t.Fatalf("step %d (%v): fold = %+v\nlive = %+v", i, m.Kind, fold, got)
		}
	}
	if fold.Epoch != 6 {
		t.Fatalf("final epoch = %d; want 6 (three no-op steps)", fold.Epoch)
	}
}

func TestMutateRejectsBadInput(t *testing.T) {
	s, name := newTestService(t, Config{})
	if err := s.Mutate(name, Mutation{Nodes: []topo.NodeID{1}}, ""); err == nil ||
		!strings.Contains(err.Error(), "unknown mutation kind") {
		t.Fatalf("zero kind: err = %v", err)
	}
	bad := Mutation{Kind: MutationMove, Moves: []topo.Move{{Node: 2, X: 1, Y: 1}, {Node: -1, X: 1, Y: 1}}}
	if err := s.Mutate(name, bad, ""); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range move: err = %v", err)
	}
	// A rejected batch applies nothing, not even its valid prefix.
	if st := s.ExportState()[0]; st.Epoch != 0 || len(st.Moved) != 0 {
		t.Fatalf("rejected batch left state %+v", st)
	}
}

func TestDecodeMutationIsStrictPerKind(t *testing.T) {
	dep, m, err := DecodeMutation(MutationRevive, strings.NewReader(`{"deployment":"d","nodes":[4,5]}`))
	if err != nil || dep != "d" || m.Kind != MutationRevive || fmt.Sprint(m.Nodes) != "[4 5]" {
		t.Fatalf("revive decode = %q %+v %v", dep, m, err)
	}
	if _, _, err := DecodeMutation(MutationFail, strings.NewReader(`{"deployment":"d","moves":[]}`)); err == nil {
		t.Fatal("a moves field on /fail must be rejected")
	}
	if _, _, err := DecodeMutation(MutationMove, strings.NewReader(`{"deployment":"d","nodes":[1]}`)); err == nil {
		t.Fatal("a nodes field on /move must be rejected")
	}
}
