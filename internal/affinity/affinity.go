// Package affinity gives pieces of work that run side by side a processor
// each. A kernel places a woken thread where it ran last unless it balances
// load, and hosts exist that switch balancing off below a load threshold
// (cpuset.sched_load_balance = 0 until CPU pressure rises): there every thread
// of a lightly loaded process stays on the processor the process was started
// on, two concurrent queries share it while the next one idles, and which of
// the two states a run is in depends on what ran before it. A claim does not
// depend on that.
package affinity

import (
	"math/bits"
	"runtime"
	"sync"
)

// mask is a set of processors, one bit each (1024 of them).
type mask [16]uint64

// first returns the word and bit of the lowest processor in m that is not in
// taken, and whether there is one.
func (m mask) first(taken mask) (word int, bit uint64, ok bool) {
	for w := range m {
		if free := m[w] &^ taken[w]; free != 0 {
			return w, 1 << bits.TrailingZeros64(free), true
		}
	}
	return 0, 0, false
}

func (m mask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

var (
	mu      sync.Mutex
	claimed mask
)

// Claim binds the calling goroutine to its thread and the thread to a
// processor that no other claim holds, until release is called on the same
// goroutine. It binds nothing, and release does nothing, when the process may
// use one processor only, when all of them are claimed, or when the host does
// not let a thread choose.
func Claim() (release func()) {
	runtime.LockOSThread()
	var all, one mask
	if all.get() && all.count() > 1 {
		mu.Lock()
		w, b, ok := all.first(claimed)
		if ok {
			claimed[w] |= b
		}
		mu.Unlock()
		if ok {
			one[w] = b
			if one.set() {
				return func() {
					all.set()
					unclaim(w, b)
					runtime.UnlockOSThread()
				}
			}
			unclaim(w, b)
		}
	}
	runtime.UnlockOSThread()
	return func() {}
}

func unclaim(w int, b uint64) {
	mu.Lock()
	claimed[w] &^= b
	mu.Unlock()
}
