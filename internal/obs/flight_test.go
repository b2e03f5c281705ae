package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestJournalTailOrder records fewer events than capacity and checks
// dense, oldest-first sequences.
func TestJournalTailOrder(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		seq := j.Record(Event{Kind: EventFail, Nodes: i})
		if seq != uint64(i+1) {
			t.Fatalf("Record #%d returned seq %d", i, seq)
		}
	}
	tail := j.Tail(0)
	if len(tail) != 5 {
		t.Fatalf("tail = %d events, want 5", len(tail))
	}
	for i, ev := range tail {
		if ev.Seq != uint64(i+1) || ev.Nodes != i {
			t.Fatalf("tail[%d] = seq %d nodes %d", i, ev.Seq, ev.Nodes)
		}
	}
}

// TestJournalWraparound pins the overflow semantics: a ring of
// capacity C retains exactly the newest C events, the overwritten
// prefix is gone, and Total still counts every record.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(8)
	if j.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", j.Cap())
	}
	const total = 21
	for i := 1; i <= total; i++ {
		j.Record(Event{Kind: EventMove, Nodes: i})
	}
	if j.Total() != total {
		t.Fatalf("Total = %d, want %d", j.Total(), total)
	}
	tail := j.Tail(0)
	if len(tail) != 8 {
		t.Fatalf("tail = %d events, want 8 (ring capacity)", len(tail))
	}
	for i, ev := range tail {
		wantSeq := uint64(total - 8 + 1 + i)
		if ev.Seq != wantSeq || ev.Nodes != int(wantSeq) {
			t.Fatalf("tail[%d] = seq %d nodes %d, want seq %d", i, ev.Seq, ev.Nodes, wantSeq)
		}
	}
	// max caps the tail from the newest end.
	last2 := j.Tail(2)
	if len(last2) != 2 || last2[1].Seq != total || last2[0].Seq != total-1 {
		t.Fatalf("Tail(2) = %+v", last2)
	}
	// Since filters strictly after the given sequence.
	since := j.Since(total-3, 0)
	if len(since) != 3 || since[0].Seq != total-2 {
		t.Fatalf("Since = %+v", since)
	}
	// A lapped cursor yields only the retained window.
	if got := j.Since(1, 0); len(got) != 8 {
		t.Fatalf("Since(1) = %d events, want 8", len(got))
	}
}

// TestJournalSizing pins the rounding rules: power-of-two capacity,
// default 1024.
func TestJournalSizing(t *testing.T) {
	if c := NewJournal(0).Cap(); c != 1024 {
		t.Fatalf("default Cap = %d, want 1024", c)
	}
	if c := NewJournal(100).Cap(); c != 128 {
		t.Fatalf("Cap(100) = %d, want 128", c)
	}
}

// TestJournalKindJSON round-trips the typed kind through JSON.
func TestJournalKindJSON(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, Kind: EventRevive})
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal(b, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventRevive {
		t.Fatalf("round-trip kind = %v", ev.Kind)
	}
	if err := json.Unmarshal([]byte(`{"kind":"bogus"}`), &ev); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
	if _, err := ParseEventKind("fail"); err != nil {
		t.Fatal(err)
	}
}

// TestJournalConcurrent storms the ring from many writers while
// readers tail it: every event read must be internally consistent
// (the writer-encoded invariant Nodes == Seq%1000) — the torn-slot
// detection contract, under -race.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Record(Event{Kind: EventFail, Deployment: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	var readerWG sync.WaitGroup
	readerWG.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range j.Tail(0) {
					if ev.Seq == 0 || ev.Kind != EventFail || ev.Deployment == "" {
						t.Errorf("torn event read: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if j.Total() != writers*perWriter {
		t.Fatalf("Total = %d, want %d", j.Total(), writers*perWriter)
	}
	tail := j.Tail(0)
	if len(tail) != 64 {
		t.Fatalf("retained %d events, want 64", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail not in sequence order: %d then %d", tail[i-1].Seq, tail[i].Seq)
		}
	}
}
