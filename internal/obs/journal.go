package obs

import (
	"fmt"
	"sync/atomic"
)

// EventKind classifies a journal entry. The zero value is reserved so
// a zeroed Event is distinguishable from a recorded one.
type EventKind uint8

// Journal event kinds, one per structural change the serving layer
// records: substrate construction, the three topology mutations (each
// entry carries the repair that followed it), and cache purges forced
// outside a topology change.
const (
	EventNone EventKind = iota
	EventBuild
	EventFail
	EventRevive
	EventMove
	EventPurge
	// Fleet control-plane kinds, appended after the serving-layer kinds
	// (the enum is wire-visible; existing ordinals must never shift):
	// replicas joining and leaving the shard map, a re-shard publishing
	// a new map version, and state restored onto a replica.
	EventJoin
	EventLeave
	EventReshard
	EventRestore
)

var eventKindNames = [...]string{"none", "build", "fail", "revive", "move", "purge",
	"join", "leave", "reshard", "restore"}

// String names the kind as it appears on the wire ("fail", "build", ...).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalText renders the kind as its name, so journal JSON reads
// "kind": "fail" rather than an opaque enum ordinal.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name; unknown names are an error so
// report round-trips catch schema drift.
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, n := range eventKindNames {
		if string(b) == n {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", b)
}

// ParseEventKind maps a kind name ("fail") to its EventKind, for
// journal tail filters.
func ParseEventKind(s string) (EventKind, error) {
	var k EventKind
	err := k.UnmarshalText([]byte(s))
	return k, err
}

// Event is one structured journal entry: a topology change, substrate
// build, or cache purge, with enough timing breakdown to reconstruct
// what the repair pipeline did and how long each substrate took. All
// fields are value types so an entry is one slot copy — no shared
// backing arrays between writer and readers.
type Event struct {
	// Seq is the journal-assigned sequence number, 1-based and dense:
	// gaps in a tail mean the ring lapped those entries.
	Seq    uint64 `json:"seq"`
	UnixMS int64  `json:"t_unix_ms"`

	Kind       EventKind `json:"kind"`
	Deployment string    `json:"deployment,omitempty"`
	// Replica attributes fleet control-plane events (join, leave,
	// reshard, restore) to the replica they concern; empty for
	// single-process serving-layer events.
	Replica string `json:"replica,omitempty"`
	// RequestID attributes the event to the HTTP request that caused
	// it (the X-Request-Id the middleware assigned), empty for events
	// raised outside a request.
	RequestID string `json:"request_id,omitempty"`

	// Nodes is the batch size of the triggering mutation (nodes failed
	// / revived / moved; deployment size for builds).
	Nodes int `json:"nodes,omitempty"`
	// Dirty is the deduplicated dirty set handed to the repair pass —
	// the work actually done, as opposed to the batch requested.
	Dirty int `json:"dirty,omitempty"`

	// Epoch is the deployment epoch after the event's bump (0 when
	// the event does not bump the epoch).
	Epoch uint64 `json:"epoch,omitempty"`

	// DurationUS is the whole operation's wall time (build, or clone,
	// repair and publish of a new version);
	// the three *US spans break an incremental repair down by
	// substrate (concurrent, so they overlap rather than sum).
	DurationUS int64 `json:"duration_us,omitempty"`
	SafetyUS   int64 `json:"safety_us,omitempty"`
	BoundUS    int64 `json:"bound_us,omitempty"`
	PlanarUS   int64 `json:"planar_us,omitempty"`

	Err string `json:"error,omitempty"`
}

// Journal is a bounded multi-producer ring of Events. Record claims a
// slot with one atomic increment and publishes the entry with one
// atomic pointer store — no locks, nothing on a hot path blocks on a
// reader. When the ring wraps, the oldest entries are overwritten;
// readers detect laps by sequence number and simply skip slots that
// are mid-overwrite.
type Journal struct {
	mask  uint64
	seq   atomic.Uint64
	slots []atomic.Pointer[Event]
}

// NewJournal allocates a ring holding at least size entries (rounded
// up to a power of two; size <= 0 selects the 1024-entry default).
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = 1024
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Journal{mask: uint64(n - 1), slots: make([]atomic.Pointer[Event], n)}
}

// Cap is the number of entries the ring retains before overwriting.
func (j *Journal) Cap() int { return len(j.slots) }

// Total is the number of events ever recorded (recorded − retained =
// entries lost to wraparound).
func (j *Journal) Total() uint64 { return j.seq.Load() }

// Record assigns the event the next sequence number and publishes it,
// returning the sequence. Safe for any number of concurrent writers.
func (j *Journal) Record(ev Event) uint64 {
	n := j.seq.Add(1)
	ev.Seq = n
	j.slots[(n-1)&j.mask].Store(&ev)
	return n
}

// Tail returns up to max of the newest events, oldest first. max <= 0
// means the whole retained window.
func (j *Journal) Tail(max int) []Event { return j.Since(0, max) }

// Since returns up to max events with Seq > after, oldest first —
// the incremental-poll form of Tail. Entries overwritten by ring
// wraparound, and slots currently being overwritten, are skipped.
func (j *Journal) Since(after uint64, max int) []Event {
	hi := j.seq.Load()
	if hi == 0 {
		return nil
	}
	lo := uint64(1)
	if n := uint64(len(j.slots)); hi > n {
		lo = hi - n + 1
	}
	if after >= lo {
		lo = after + 1
	}
	if lo > hi {
		return nil
	}
	if max > 0 && hi-lo+1 > uint64(max) {
		lo = hi - uint64(max) + 1
	}
	out := make([]Event, 0, hi-lo+1)
	for n := lo; n <= hi; n++ {
		p := j.slots[(n-1)&j.mask].Load()
		if p == nil || p.Seq != n {
			// Slot claimed but not yet published, or already lapped by
			// a newer claim — either way seq n is not retrievable.
			continue
		}
		out = append(out, *p)
	}
	return out
}
