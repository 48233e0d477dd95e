package gateway

import (
	"sync"
	"testing"
	"time"
)

// recordingSink collects every event it is handed (mockable-sink test
// double).
type recordingSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *recordingSink) Record(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *recordingSink) all() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// TestAuditorOrderedAndFlushedOnDrain: every submitted event has reached
// the sink and the tail, in sequence order, when submit returns.
func TestAuditorOrderedAndFlushedOnDrain(t *testing.T) {
	sink := &recordingSink{}
	a := newAuditor(32, sink)
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10; i++ {
		a.submit(Event{Tenant: "t", RequestID: "r"}, now.Add(time.Duration(i)))
	}
	got := sink.all()
	if len(got) != 10 {
		t.Fatalf("sink saw %d events, want 10", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (ordered broadcast)", i, e.Seq, i+1)
		}
	}
	tail := a.Tail(0)
	if len(tail) != 10 {
		t.Fatalf("tail holds %d events, want 10", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail out of order at %d: %d then %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
	if written := a.written(); written != 10 {
		t.Fatalf("written = %d, want 10", written)
	}
}

// TestAuditorTailRingAndLimit: the tail keeps only the most recent
// tailCap events, and Tail(n) trims to the newest n.
func TestAuditorTailRingAndLimit(t *testing.T) {
	a := newAuditor(4, nil)
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 10; i++ {
		a.submit(Event{}, now)
	}
	tail := a.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("tail holds %d events, want 4 (ring capacity)", len(tail))
	}
	if tail[0].Seq != 7 || tail[3].Seq != 10 {
		t.Fatalf("tail spans seq %d..%d, want 7..10", tail[0].Seq, tail[3].Seq)
	}
	if got := a.Tail(2); len(got) != 2 || got[1].Seq != 10 {
		t.Fatalf("Tail(2) = %+v, want the newest two", got)
	}
}
