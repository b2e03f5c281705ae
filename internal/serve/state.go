package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/straightpath/wasn/internal/topo"
)

// DeploymentState is the portable state of one deployment: everything a
// fresh replica needs to reconstruct it route-identically. The spec
// regenerates the pristine topology; Failed and Moved replay the churn
// it absorbed; Epoch carries the cache-invalidation clock forward so a
// restored replica's cache keys line up with the origin's.
//
// The restore path applies Moved and Failed to the freshly deployed
// network *before* building substrates, so the restored replica builds
// from scratch over the exact damaged topology — and the
// repair-equals-rebuild differential contract (core.RepairSubstrates,
// core.RepairSubstratesMoved) guarantees those substrates, and hence
// every route of all seven algorithms, are bit-identical to the
// origin's incrementally repaired ones.
type DeploymentState struct {
	Name string `json:"name"`
	Spec Spec   `json:"spec"`
	// Failed is the currently dead node set, sorted.
	Failed []topo.NodeID `json:"failed,omitempty"`
	// Moved is the last applied position of every node that ever moved,
	// sorted by node id. Positions are absolute, so replaying them is
	// idempotent.
	Moved []topo.Move `json:"moved,omitempty"`
	// Epoch is the deployment's topology-mutation count.
	Epoch uint64 `json:"epoch"`
}

// ExportState snapshots every registered deployment's portable state,
// sorted by name — the serve-side half of the fleet snapshot/restore
// protocol. Deployments still carrying a pending restore (registered
// via RestoreState but not yet built) export that pending state, so
// export∘restore is stable even before first use.
func (s *Service) ExportState() []DeploymentState {
	deps := s.deployments()
	out := make([]DeploymentState, 0, len(deps))
	for _, d := range deps {
		var st DeploymentState
		if v := d.cur.Load(); v != nil {
			st = v.state
		} else if rs := d.pending.Load(); rs != nil {
			st = *rs
		}
		st.Name, st.Spec = d.name, d.spec
		st.Failed, st.Moved = slices.Clone(st.Failed), slices.Clone(st.Moved)
		sort.Slice(st.Failed, func(i, j int) bool { return st.Failed[i] < st.Failed[j] })
		sort.Slice(st.Moved, func(i, j int) bool { return st.Moved[i].Node < st.Moved[j].Node })
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RestoreState installs deployment states exported from another replica
// (or read back from a disk snapshot). For an unknown name the state is
// registered with the restore pending: the first use deploys the spec,
// replays Moved and Failed onto the pristine network, then builds the
// substrates from scratch — route-identical to the origin, with the
// origin's epoch. For a name already registered with the same spec but
// not yet built, the pending state is replaced. For a deployment that
// is already live, the current topology is reconciled to the target
// (missing failures applied, extra dead nodes revived, positions
// re-applied); the routes converge to the same topology but the local
// epoch keeps counting from its own history.
//
// A state whose spec conflicts with a live registration is an error;
// earlier states in the batch stay applied.
func (s *Service) RestoreState(states []DeploymentState) error {
	var changed bool
	defer func() {
		if changed {
			s.notifyState()
		}
	}()
	for i := range states {
		st := states[i]
		for _, u := range st.Failed {
			if u < 0 || int(u) >= st.Spec.N {
				return fmt.Errorf("serve: restore %q: failed node out of range [0,%d): %d", st.Name, st.Spec.N, u)
			}
		}
		for _, m := range st.Moved {
			if m.Node < 0 || int(m.Node) >= st.Spec.N {
				return fmt.Errorf("serve: restore %q: moved node out of range [0,%d): %d", st.Name, st.Spec.N, m.Node)
			}
		}
		name, err := s.Deploy(st.Name, st.Spec)
		if err != nil {
			return fmt.Errorf("serve: restore: %w", err)
		}
		d, err := s.lookup(name)
		if err != nil {
			return err
		}
		if err := s.restoreInto(d, st); err != nil {
			return err
		}
		changed = true
	}
	return nil
}

// restoreInto applies one state to its registered deployment: pending
// restore when not yet built, live reconciliation otherwise.
func (s *Service) restoreInto(d *deployment, st DeploymentState) error {
	d.wmu.Lock()
	v := d.cur.Load()
	if v == nil {
		pending := st // copy; the caller's slice entries are not retained elsewhere
		d.pending.Store(&pending)
		d.wmu.Unlock()
		return nil
	}
	d.wmu.Unlock()
	// Live deployment: collect the dead nodes the target has alive,
	// then reconcile through Mutate like any churn (it repairs the
	// substrates, bumps the epoch, and skips what already matches).
	targetDead := make(map[topo.NodeID]bool, len(st.Failed))
	for _, u := range st.Failed {
		targetDead[u] = true
	}
	var toRevive []topo.NodeID
	for _, u := range v.state.Failed {
		if !targetDead[u] {
			toRevive = append(toRevive, u)
		}
	}

	for _, m := range []Mutation{
		{Kind: MutationMove, Moves: st.Moved},
		{Kind: MutationFail, Nodes: st.Failed},
		{Kind: MutationRevive, Nodes: toRevive},
	} {
		if err := s.Mutate(d.name, m, ""); err != nil {
			return fmt.Errorf("serve: restore %q: %w", d.name, err)
		}
	}
	return nil
}

// Apply folds a mutation into the state the way Service.Mutate applies
// it to a live deployment, and reports whether it changed anything.
// The epoch is bumped exactly when it did — the replica's rule — so a
// fleet router folding the mutations it proxied keeps the owner's
// epoch. A fail or revive merges its distinct effective nodes into the
// sorted dead set; a move batch, sorted stably by node so that a node's
// last move in it wins, merges into the sorted moved positions. Both
// are linear in the state plus the batch. Failed and Moved are replaced
// with fresh sorted slices, never updated in place, so copies handed
// out earlier stay unchanged. A state built or decoded elsewhere whose
// Failed or Moved is not strictly sorted by node is normalized first,
// as the map fold it replaced would have read it: duplicates collapse,
// a node's last entry in Moved wins. Node ranges are not checked: the
// caller folds only mutations a replica has accepted.
func (st *DeploymentState) Apply(m Mutation) bool {
	st.normalize()
	return !st.apply(m).empty()
}

// normalize replaces Failed and Moved, when either is not strictly
// sorted by node, with sorted copies free of duplicates; the states
// that apply folded and that Service.Mutate keeps already are.
func (st *DeploymentState) normalize() {
	if !strictlySorted(st.Failed, func(u topo.NodeID) topo.NodeID { return u }) {
		failed := slices.Clone(st.Failed)
		slices.Sort(failed)
		st.Failed = slices.Compact(failed)
	}
	if !strictlySorted(st.Moved, func(m topo.Move) topo.NodeID { return m.Node }) {
		st.Moved = foldMoves(nil, st.Moved)
	}
}

// strictlySorted reports whether s is strictly ascending by node.
func strictlySorted[T any](s []T, node func(T) topo.NodeID) bool {
	for i := 1; i < len(s); i++ {
		if node(s[i]) <= node(s[i-1]) {
			return false
		}
	}
	return true
}

// apply is Apply returning the effective mutation: the part of m that
// changed the state, empty for a no-op, on a state whose Failed and
// Moved are strictly sorted by node. Service.Mutate applies exactly
// that part to the network of the next version.
func (st *DeploymentState) apply(m Mutation) Mutation {
	eff := m.effective(func(u topo.NodeID) bool {
		_, dead := slices.BinarySearch(st.Failed, u)
		return dead
	})
	if eff.empty() {
		return eff
	}
	switch m.Kind {
	case MutationFail:
		st.Failed = slices.Concat(st.Failed, eff.Nodes)
		slices.Sort(st.Failed)
	case MutationRevive:
		revived := slices.Clone(eff.Nodes)
		slices.Sort(revived)
		st.Failed = slices.DeleteFunc(slices.Clone(st.Failed), func(u topo.NodeID) bool {
			_, ok := slices.BinarySearch(revived, u)
			return ok
		})
	case MutationMove:
		st.Moved = foldMoves(st.Moved, m.Moves)
	}
	st.Epoch++
	return eff
}

// foldMoves returns moved, sorted by node, with the batch merged in: a
// fresh slice holding per node its last move of the batch, or its old
// entry when the batch has none.
func foldMoves(moved, batch []topo.Move) []topo.Move {
	batch = slices.Clone(batch)
	slices.SortStableFunc(batch, func(a, b topo.Move) int { return cmp.Compare(a.Node, b.Node) })
	out := make([]topo.Move, 0, len(moved)+len(batch))
	i := 0
	for k, mv := range batch {
		if k+1 < len(batch) && batch[k+1].Node == mv.Node {
			continue
		}
		for ; i < len(moved) && moved[i].Node < mv.Node; i++ {
			out = append(out, moved[i])
		}
		if i < len(moved) && moved[i].Node == mv.Node {
			i++
		}
		out = append(out, mv)
	}
	return append(out, moved[i:]...)
}

// notifyState invokes the Config.OnStateChange hook, if any. Callers
// must not hold the registry or a deployment's writer lock: the hook
// may call back into the service.
func (s *Service) notifyState() {
	if s.cfg.OnStateChange != nil {
		s.cfg.OnStateChange()
	}
}
