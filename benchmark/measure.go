package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"remac/internal/matrix"
	"remac/internal/opt"
)

// outcome is what one op returned, reduced to what verification and the
// metrics need. Which fields are set depends on the path under test.
type outcome struct {
	// done is when the part of the op a user waits for ended.
	done time.Time
	// hash is the result identity the serving paths return (ResultHash).
	hash uint64
	// values holds the result matrices where the path returns them (in
	// process); answer-sized only, so that a run can keep every op's.
	values map[string]*matrix.Matrix
	// plan is the compiled plan, kept by the compile path for the first op
	// of a key only; planSig identifies the plan of every op.
	plan    *opt.Compiled
	planSig string
	// Simulated-clock accounting of the op (zero on the compile path).
	simSec, computeSec, transmitSec float64
	// Engine counters of the op, where the path exposes them.
	iterations, engineOps int
	flop                  float64
	bytes                 [4]float64 // collect, broadcast, shuffle, dfs
	// Planner counters (compile path).
	optionsFound, optionsSelected int
	modelledCost                  float64
}

// sample is one executed op of a measured window.
type sample struct {
	key, op int
	// latency runs from the start of the op (closed loop) or from when it
	// was due (open loop) to outcome.done; late is how long after its due
	// time an open-loop op was actually sent.
	latency, late time.Duration
	out           outcome
	err           error
}

// opFunc executes the op with the given key. tr is nil on the untraced pass.
type opFunc func(ctx context.Context, key, op int, tr *tracer) (outcome, error)

// window is one measured interval of a workload.
type window struct {
	samples []sample
	wall    time.Duration
	// Process accounting across the window; sys, faults and preempted
	// (system CPU, minor page faults, involuntary context switches) are
	// diagnostics of the machine rather than of the program.
	cpu, sys            time.Duration
	faults, preempted   int64
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	heapPeak            uint64
	// speed is the machine's speed during the window relative to the
	// reference box when idle (see burst): above 1 is faster.
	speed float64
	// Open loop only: requests outstanding when the last arrival was due.
	backlogEnd int
	// marks are taken when the first op of each block is sent. A block is
	// a run of consecutive ops with the same work on every repeat (one pass
	// of the mix), so the time and CPU between two marks can be compared
	// across blocks and their median taken.
	marks []mark
}

// mark is the wall clock and the process CPU when op index op was sent.
type mark struct {
	op  int
	at  time.Time
	cpu time.Duration
}

// markers collects the marks of a window from concurrent clients.
type markers struct {
	mu       sync.Mutex
	blockOps int
	marks    []mark
}

func (m *markers) sending(op int, at time.Time) {
	if op%m.blockOps != 0 {
		return
	}
	cpu := cpuOf(processUsage())
	m.mu.Lock()
	m.marks = append(m.marks, mark{op, at, cpu})
	m.mu.Unlock()
}

func (m *markers) sorted() []mark {
	sort.Slice(m.marks, func(i, j int) bool { return m.marks[i].op < m.marks[j].op })
	return m.marks
}

// perBlock returns the median wall time and CPU time between consecutive
// marks, or zeros when the window holds fewer than two.
func (w *window) perBlock() (wall, cpu time.Duration) {
	var walls, cpus []float64
	for i := 1; i < len(w.marks); i++ {
		walls = append(walls, float64(w.marks[i].at.Sub(w.marks[i-1].at)))
		cpus = append(cpus, float64(w.marks[i].cpu-w.marks[i-1].cpu))
	}
	return time.Duration(median(walls)), time.Duration(median(cpus))
}

// passSchedule visits every key once per pass, in an order shuffled per
// pass from the seed.
func passSchedule(keys int, seed int64) func(i int) int {
	var mu sync.Mutex
	var perms [][]int
	return func(i int) int {
		pass := i / keys
		mu.Lock()
		defer mu.Unlock()
		for len(perms) <= pass {
			perms = append(perms, rand.New(rand.NewSource(seed+int64(len(perms))*7919)).Perm(keys))
		}
		return perms[pass][i%keys]
	}
}

// burstBuf is what the calibration burst streams over: 8 MB, more than a
// core's private caches hold, so that the burst waits for the memory the
// machine shares with its neighbours, as the program's kernels, allocator
// and collector do.
var burstBuf = make([]float64, 1<<20)

// burstSum keeps the burst's result alive; only the calibrating goroutine
// writes it.
var burstSum float64

// burstNominal is the CPU time of one burst on the reference box when its
// host is quiet.
const burstNominal = 2700 * time.Microsecond

// burst is a fixed piece of the benchmark's own work, timed every 100 ms of
// a window to tell how fast the machine is running. The box is a few cores of
// a shared host: for minutes at a time its neighbours slow every memory-bound
// program on it by 10–40 %, which is more than any bound of BENCHMARK.json.
// The timing metrics are therefore reported at the reference speed (measured
// time × speed), which removes about half of that.
//
// Only the calibrating goroutine touches burstBuf. The race detector would
// make the burst ten times longer, long enough to hold up the open-loop
// generator in the tests, so it is told to leave these accesses alone.
//
//go:norace
func burst() float64 {
	s := 0.0
	for i := range burstBuf {
		s = s*0.5 + burstBuf[i]
		burstBuf[i] = s
	}
	return s
}

// threadCPU is the CPU time the calling thread has used, from the thread's
// own clock (getrusage rounds a thread's time to scheduler ticks); the caller
// has locked its goroutine to the thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID (Linux)
	var ts syscall.Timespec
	// A failed call leaves zeros: no burst is timed and speed reads 1.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibrated runs body while one goroutine, every 100 ms, times a
// calibration burst by the CPU time of its thread, which waiting for a core
// does not lengthen, and samples the heap. It returns the machine's speed
// over that time (1 if no burst was timed) and the heap's peak.
func calibrated(body func()) (speed float64, heapPeak uint64) {
	stop := make(chan struct{})
	var bursts []float64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t0 := threadCPU()
				burstSum = burst()
				if d := threadCPU() - t0; d > 0 {
					bursts = append(bursts, float64(d))
				}
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > heapPeak {
					heapPeak = ms.HeapInuse
				}
			}
		}
	}()
	body()
	close(stop)
	sampler.Wait()
	if len(bursts) == 0 {
		return 1, heapPeak
	}
	return float64(burstNominal) / median(bursts), heapPeak
}

// account brackets a window with process-wide CPU, allocation and GC
// readings, and with the machine's speed.
func account(w *window, body func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ru0 := processUsage()
	w.speed, w.heapPeak = calibrated(func() {
		start := time.Now()
		body()
		w.wall = time.Since(start)
	})
	ru1 := processUsage()
	w.cpu = cpuOf(ru1) - cpuOf(ru0)
	w.sys = time.Duration(ru1.Stime.Nano() - ru0.Stime.Nano())
	w.faults = ru1.Minflt - ru0.Minflt
	w.preempted = ru1.Nivcsw - ru0.Nivcsw
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	w.gcCycles = after.NumGC - before.NumGC
	w.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	if after.HeapInuse > w.heapPeak {
		w.heapPeak = after.HeapInuse
	}
}

// processUsage reads this process's resource usage (zero if the call fails).
func processUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a failed call leaves zeros, which read as no usage
	return ru
}

// cpuOf is user plus system CPU time.
func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prefault touches and releases the given number of bytes, so that the pages
// the workload is about to use are already backed by the host. On a
// lazily-backed virtual machine the first touch of a page costs tens of
// microseconds (a gigabyte takes 10–20 s, against 0.5 s afterwards); without
// this, whichever run first grows into untouched memory reads several times
// slower than the next.
func prefault(bytes int) {
	const page = 4096
	buf := make([]byte, bytes)
	for i := 0; i < len(buf); i += page {
		buf[i] = 1
	}
	sink = buf[len(buf)-1]
	buf = nil
	debug.FreeOSMemory()
}

// closedLoop runs ops from the schedule on the given number of clients, each
// sending its next op only after the previous one completed, until the time
// is up. Ops in flight at that moment complete and count.
func closedLoop(ctx context.Context, clients, blockOps int, schedule func(i int) int, run opFunc, tr *tracer, d time.Duration) *window {
	w := &window{}
	mk := &markers{blockOps: blockOps}
	var next atomic.Int64
	perClient := make([][]sample, clients)
	account(w, func() {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1) - 1)
					key := schedule(i)
					start := time.Now()
					mk.sending(i, start)
					out, err := run(ctx, key, i, tr)
					perClient[c] = append(perClient[c], sample{key: key, op: i, latency: out.done.Sub(start), out: out, err: err})
				}
			}(c)
		}
		wg.Wait()
	})
	for _, s := range perClient {
		w.samples = append(w.samples, s...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].op < w.samples[j].op })
	w.marks = mk.sorted()
	return w
}

// arrivals schedules qps·d requests over d as pairs: the pairs are evenly
// spaced with a seeded jitter of a quarter of the spacing either way, and
// the second request of a pair follows the first by half a millisecond, so
// that both fall into one batch window. Every seed offers the same load in
// the same shape; a Poisson stream at this rate puts two requests into one
// window once in fifty, and its bunching made the tail differ by a factor
// of three from seed to seed.
func arrivals(seed int64, qps float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	pairs := int(math.Round(qps*d.Seconds())) / 2
	spacing := float64(d) / float64(pairs)
	out := make([]time.Duration, 0, 2*pairs)
	for k := 0; k < pairs; k++ {
		at := time.Duration((float64(k) + 0.25 + 0.5*rng.Float64()) * spacing)
		out = append(out, at, at+pairGap)
	}
	return out
}

// pairGap separates the two requests of an open-loop pair.
const pairGap = 500 * time.Microsecond

// openLoop sends one op at each arrival offset regardless of how many are
// still outstanding: one scheduler goroutine sleeps to each due time and
// hands the op to its own goroutine. Latency is timed from the due time, so
// a stall in the generator or the server is charged to the ops it delayed.
func openLoop(ctx context.Context, arrivals []time.Duration, blockOps int, schedule func(i int) int, run opFunc, tr *tracer) *window {
	w := &window{samples: make([]sample, len(arrivals))}
	mk := &markers{blockOps: blockOps}
	var outstanding atomic.Int64
	account(w, func() {
		start := time.Now()
		var wg sync.WaitGroup
		for i, at := range arrivals {
			due := start.Add(at)
			time.Sleep(time.Until(due))
			if i == len(arrivals)-1 {
				w.backlogEnd = int(outstanding.Load())
			}
			sent := time.Now()
			mk.sending(i, sent)
			outstanding.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer outstanding.Add(-1)
				key := schedule(i)
				out, err := run(ctx, key, i, tr)
				w.samples[i] = sample{key: key, op: i, latency: out.done.Sub(due), late: sent.Sub(due), out: out, err: err}
			}(i)
		}
		wg.Wait()
	})
	w.marks = mk.sorted()
	return w
}

// quantile is the nearest-rank quantile of a sorted slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
