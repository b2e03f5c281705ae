package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/straightpath/wasn/internal/obs"
	"github.com/straightpath/wasn/internal/topo"
)

// MutationKind selects the topology change a Mutation makes.
type MutationKind uint8

// The three topology changes a deployment absorbs.
const (
	MutationFail MutationKind = iota + 1
	MutationRevive
	MutationMove
)

var mutationEvents = [...]obs.EventKind{
	MutationFail: obs.EventFail, MutationRevive: obs.EventRevive, MutationMove: obs.EventMove,
}

// String names the kind as its HTTP endpoint does ("fail" for POST
// /fail) and as the journal records it.
func (k MutationKind) String() string {
	if k < MutationFail || k > MutationMove {
		return fmt.Sprintf("mutation(%d)", uint8(k))
	}
	return mutationEvents[k].String()
}

// Mutation is one topology change of a deployment: Nodes failing or
// reviving, or Moves relocating nodes to absolute positions. It is the
// one value every layer passes a change through — the /fail, /revive
// and /move handlers decode it, Service.Mutate applies it, the fleet
// router folds it into desired state with DeploymentState.Apply, and
// the workload drivers send it.
type Mutation struct {
	Kind  MutationKind
	Nodes []topo.NodeID // MutationFail, MutationRevive
	Moves []topo.Move   // MutationMove
}

// effective narrows m to the part that changes a topology whose dead
// set is dead: the distinct alive nodes of a fail, the distinct dead
// nodes of a revive, every move of a move (positions are absolute, so a
// move always re-applies). It is empty exactly when m is a no-op —
// the rule behind every epoch bump, shared by the replica
// (Service.Mutate) and the fold (DeploymentState.Apply) so the two
// cannot drift apart.
func (m Mutation) effective(dead func(topo.NodeID) bool) Mutation {
	if m.Kind == MutationMove {
		return m
	}
	out := Mutation{Kind: m.Kind}
	seen := make(map[topo.NodeID]bool, len(m.Nodes))
	for _, u := range m.Nodes {
		if dead(u) == (m.Kind == MutationRevive) && !seen[u] {
			seen[u] = true
			out.Nodes = append(out.Nodes, u)
		}
	}
	return out
}

func (m Mutation) empty() bool { return len(m.Nodes) == 0 && len(m.Moves) == 0 }

// nodesRequest is the body of POST /fail and POST /revive.
type nodesRequest struct {
	Deployment string        `json:"deployment"`
	Nodes      []topo.NodeID `json:"nodes"`
}

// movesRequest is the body of POST /move.
type movesRequest struct {
	Deployment string      `json:"deployment"`
	Moves      []topo.Move `json:"moves"`
}

// Request returns the JSON body that POSTs m against the named
// deployment to the endpoint "/"+m.Kind.String().
func (m Mutation) Request(deployment string) any {
	if m.Kind == MutationMove {
		return movesRequest{Deployment: deployment, Moves: m.Moves}
	}
	return nodesRequest{Deployment: deployment, Nodes: m.Nodes}
}

// DecodeMutation strictly decodes the body of POST /fail, /revive or
// /move (selected by kind), returning the deployment it names and the
// mutation it asks for. Unknown fields — a "moves" field on /fail, say
// — are an error.
func DecodeMutation(kind MutationKind, r io.Reader) (string, Mutation, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	m := Mutation{Kind: kind}
	if kind == MutationMove {
		var req movesRequest
		err := dec.Decode(&req)
		m.Moves = req.Moves
		return req.Deployment, m, err
	}
	var req nodesRequest
	err := dec.Decode(&req)
	m.Nodes = req.Nodes
	return req.Deployment, m, err
}
