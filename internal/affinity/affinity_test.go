package affinity

import (
	"sync"
	"testing"
)

// TestConcurrentClaimsGetProcessorsOfTheirOwn holds two claims at once and
// checks that each thread is restricted to one processor, that the two differ,
// and that release lifts the restriction and frees the processor.
func TestConcurrentClaimsGetProcessorsOfTheirOwn(t *testing.T) {
	var all mask
	if !all.get() || all.count() < 2 {
		t.Skip("threads cannot choose among processors here")
	}
	var held [2]mask
	var claimedBoth, checked sync.WaitGroup
	claimedBoth.Add(2)
	checked.Add(2)
	for i := range held {
		go func(i int) {
			defer checked.Done()
			release := Claim()
			held[i].get()
			claimedBoth.Done()
			claimedBoth.Wait() // both claims are held at this point
			release()
			var after mask
			after.get()
			if after != all {
				t.Errorf("claim %d: processors after release %v, want %v", i, after, all)
			}
		}(i)
	}
	checked.Wait()
	for i, m := range held {
		if m.count() != 1 {
			t.Errorf("claim %d ran on %d processors, want 1", i, m.count())
		}
	}
	if held[0] == held[1] {
		t.Errorf("both claims got the same processor %v", held[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if claimed != (mask{}) {
		t.Errorf("processors still claimed after release: %v", claimed)
	}
}

// TestClaimsBeyondTheProcessorsBindNothing takes every processor and checks
// that one more claim leaves its thread alone.
func TestClaimsBeyondTheProcessorsBindNothing(t *testing.T) {
	var all mask
	if !all.get() || all.count() < 2 {
		t.Skip("threads cannot choose among processors here")
	}
	done := make(chan struct{})
	var holding sync.WaitGroup
	for i := 0; i < all.count(); i++ {
		holding.Add(1)
		go func() {
			release := Claim()
			holding.Done()
			<-done
			release()
		}()
	}
	holding.Wait()
	release := Claim()
	var now mask
	now.get()
	release()
	close(done)
	if now != all {
		t.Errorf("extra claim restricted its thread to %v", now)
	}
}
