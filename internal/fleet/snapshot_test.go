package fleet

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// withCRC re-seals a mutated body with a fresh, matching trailer so the
// decoder — not the checksum — has to reject the corruption.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func sampleSnapshot() Snapshot {
	return Snapshot{
		TakenUnixMS: 1754600000000,
		States: []serve.DeploymentState{
			{
				Name:   "FA-220-7",
				Spec:   serve.Spec{Model: topo.ModelFA, N: 220, Seed: 7},
				Failed: []topo.NodeID{3, 17, 44},
				Moved: []topo.Move{
					{Node: 9, X: 101.5, Y: 88.25},
					{Node: 60, X: 12, Y: 190},
				},
				Epoch: 5,
			},
			{
				Name:  "IA-150-3",
				Spec:  serve.Spec{Model: topo.ModelIA, N: 150, Seed: 3},
				Epoch: 0,
			},
			{
				Name:   "OB-400-9-c25",
				Spec:   serve.Spec{Model: topo.ModelOB, N: 400, Seed: 9, Coverage: 0.25},
				Failed: []topo.NodeID{0},
				Epoch:  1,
			},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	want := Snapshot{TakenUnixMS: 42, States: []serve.DeploymentState{}}
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.TakenUnixMS != 42 || len(got.States) != 0 {
		t.Fatalf("empty snapshot round trip = %+v", got)
	}
}

// TestSnapshotDecodeRejects walks the decoder through every corruption
// class it must refuse: each mutation of a valid snapshot has to come
// back as an error, never a panic or a silently different registry.
func TestSnapshotDecodeRejects(t *testing.T) {
	valid := EncodeSnapshot(sampleSnapshot())
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"truncated": func() []byte { return valid[:10] },
		"bad magic": func() []byte {
			b := append([]byte(nil), valid...)
			b[0] ^= 0xff
			return b
		},
		"flipped payload bit": func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)/2] ^= 0x01
			return b
		},
		"flipped crc": func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0x01
			return b
		},
		"body cut": func() []byte {
			// Drop bytes from the middle but keep a matching CRC: the
			// decoder itself must notice the truncation.
			return withCRC(valid[: len(valid)-30 : len(valid)-30])
		},
		"trailing garbage": func() []byte {
			return withCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0xde, 0xad))
		},
	}
	for name, mutate := range cases {
		if _, err := DecodeSnapshot(mutate()); err == nil {
			t.Errorf("%s: decoder accepted corrupt input", name)
		}
	}
}

func TestSnapshotUnknownVersion(t *testing.T) {
	b := EncodeSnapshot(Snapshot{})
	body := append([]byte(nil), b[:len(b)-4]...)
	body[len(snapshotMagic)] = 0xee // version field
	if _, err := DecodeSnapshot(withCRC(body)); err == nil {
		t.Fatal("decoder accepted unknown format version")
	}
}

func TestSnapshotFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.snap")
	want := sampleSnapshot()
	if err := WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("file round trip diverged")
	}
	// Corrupt one byte on disk; the read must fail loudly.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); err == nil {
		t.Fatal("corrupted snapshot file read back without error")
	}
	if _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("missing snapshot file read back without error")
	}
}

func TestSnapshotterDebounce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.snap")
	sn := NewSnapshotter(SnapshotterConfig{
		Path:     path,
		Export:   func() Snapshot { return sampleSnapshot() },
		Debounce: 20 * time.Millisecond,
	})
	// A burst of notifies must coalesce into one write.
	for i := 0; i < 10; i++ {
		sn.Notify()
	}
	deadline := time.Now().Add(5 * time.Second)
	for sn.Writes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("debounced write never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w := sn.Writes(); w != 1 {
		t.Fatalf("burst of notifies produced %d writes, want 1", w)
	}
	if _, err := ReadSnapshotFile(path); err != nil {
		t.Fatalf("snapshot unreadable after debounced write: %v", err)
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	sn.Notify() // after Close: must be a no-op, not a panic
	if got, err := ReadSnapshotFile(path); err != nil || len(got.States) != 3 {
		t.Fatalf("final flush broken: %v %+v", err, got)
	}
}

// churnHistory drives a deployment through a fail → move → revive →
// fail sequence, returning the route pairs used for comparison.
func churnHistory(t *testing.T, s *serve.Service, name string) [][2]topo.NodeID {
	t.Helper()
	if err := s.Fail(name, []topo.NodeID{5, 12, 40, 77}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move(name, []topo.Move{
		{Node: 9, X: 101.5, Y: 88.25},
		{Node: 33, X: 55, Y: 140.75},
		{Node: 9, X: 97.5, Y: 91},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Revive(name, []topo.NodeID{12, 77}); err != nil {
		t.Fatal(err)
	}
	if err := s.Fail(name, []topo.NodeID{61, 62}); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]topo.NodeID
	for src := topo.NodeID(0); src < 210; src += 13 {
		pairs = append(pairs, [2]topo.NodeID{src, 219 - src})
	}
	return pairs
}

// TestSnapshotRestoreDifferential is the fleet acceptance pin: a
// snapshot of a churned origin, pushed through the binary codec and
// restored into a fresh replica, must answer every route of all seven
// algorithms bit-identically to the origin — and carry its epoch.
func TestSnapshotRestoreDifferential(t *testing.T) {
	origin := serve.New(serve.Config{})
	name, err := origin.Deploy("", serve.Spec{Model: topo.ModelFA, N: 220, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := churnHistory(t, origin, name)

	snap := Snapshot{TakenUnixMS: 1, States: origin.ExportState()}
	decoded, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}

	restored := serve.New(serve.Config{})
	if err := restored.RestoreState(decoded.States); err != nil {
		t.Fatal(err)
	}

	for _, alg := range serve.Algorithms() {
		for _, p := range pairs {
			want, _, err := origin.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := restored.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered != want.Delivered || got.Reason != want.Reason ||
				got.Hops() != want.Hops() || got.Length != want.Length {
				t.Errorf("%s %d->%d diverged after restore:\n got %+v\nwant %+v",
					alg, p[0], p[1], got, want)
			}
		}
	}

	// The restored registry must also re-export the same state (same
	// failed set, same positions, same epoch) — export∘restore is the
	// identity the re-shard protocol leans on.
	if got, want := restored.ExportState(), origin.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-export diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestRestoreIntoLiveReplica covers the reconcile path: restoring onto
// a replica that already serves the deployment with a different churn
// history must converge its topology to the snapshot's.
func TestRestoreIntoLiveReplica(t *testing.T) {
	origin := serve.New(serve.Config{})
	name, err := origin.Deploy("", serve.Spec{Model: topo.ModelFA, N: 220, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pairs := churnHistory(t, origin, name)

	// The target replica has its own divergent history, including a dead
	// node the snapshot says is alive.
	target := serve.New(serve.Config{})
	if _, err := target.Deploy(name, serve.Spec{Model: topo.ModelFA, N: 220, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := target.Fail(name, []topo.NodeID{5, 100, 101}); err != nil {
		t.Fatal(err)
	}

	if err := target.RestoreState(origin.ExportState()); err != nil {
		t.Fatal(err)
	}
	for _, alg := range serve.Algorithms() {
		for _, p := range pairs {
			want, _, err := origin.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := target.Route(name, alg, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.Delivered != want.Delivered || got.Hops() != want.Hops() || got.Length != want.Length {
				t.Errorf("%s %d->%d diverged after live reconcile", alg, p[0], p[1])
			}
		}
	}
}

func TestRestoreRejectsOutOfRange(t *testing.T) {
	s := serve.New(serve.Config{})
	bad := []serve.DeploymentState{{
		Name:   "FA-100-1",
		Spec:   serve.Spec{Model: topo.ModelFA, N: 100, Seed: 1},
		Failed: []topo.NodeID{100},
	}}
	if err := s.RestoreState(bad); err == nil {
		t.Fatal("restore accepted a failed node outside [0,N)")
	}
	bad[0].Failed = nil
	bad[0].Moved = []topo.Move{{Node: -1, X: 1, Y: 1}}
	if err := s.RestoreState(bad); err == nil {
		t.Fatal("restore accepted a moved node outside [0,N)")
	}
}
