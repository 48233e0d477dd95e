package serve

import (
	"context"
	"math/bits"
	"sync"
	"syscall"
	"testing"
	"unsafe"

	"remac/internal/algorithms"
)

// threadProcessors reads the processor set of the calling thread.
func threadProcessors() (set [16]uint64, n int) {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return set, 0
	}
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return set, n
}

// TestConcurrentExecutionsRunOnProcessorsOfTheirOwn holds two executions in
// their probes at the same time and checks that each thread is restricted to
// one processor and that the two differ.
func TestConcurrentExecutionsRunOnProcessorsOfTheirOwn(t *testing.T) {
	if _, n := threadProcessors(); n < 2 {
		t.Skip("threads cannot choose among processors here")
	}
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	var sets [2][16]uint64
	var counts [2]int
	var both, done sync.WaitGroup
	both.Add(2)
	for i, ds := range []string{"cri1", "cri2"} {
		q := testQuery(t, algorithms.GD, ds, 1)
		q.Probe = func(int) error {
			sets[i], counts[i] = threadProcessors()
			both.Done()
			both.Wait() // the other execution holds its claim too
			return nil
		}
		done.Add(1)
		go func() {
			defer done.Done()
			if _, err := s.Do(context.Background(), q); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}()
	}
	done.Wait()
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("executions ran on %d and %d processors, want 1 each", counts[0], counts[1])
	}
	if sets[0] == sets[1] {
		t.Errorf("both executions ran on the same processor %v", sets[0])
	}
}
