package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/distmat"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// The ownership rule, made executable: whatever the executor retains — in
// the environment, its reuse caches, or through a cross-run cache or a
// shared-producer publication — is never a buffer a later operator may be
// handed as its destination, and never the buffer of another retained value.

var (
	ownershipAlgs       = []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.GNMF}
	ownershipStrategies = []opt.Strategy{opt.NoElimination, opt.Explicit, opt.Conservative, opt.Aggressive,
		opt.Automatic, opt.Adaptive, opt.SPORESLike}
)

// smallDataset is a dataset shaped like name, small enough to run every
// algorithm under every strategy: the quasi-Newton n×n values are cols².
func smallDataset(name string, rows, cols int) *data.Dataset {
	spec := data.Specs[name]
	spec.Name = fmt.Sprintf("%s-%dx%d", name, rows, cols)
	spec.ScaleRows, spec.ScaleCols = rows, cols
	return data.Generate(spec)
}

// recordingCaches is an IntermediateCache that never hits and a
// SharedProducers that makes every run the leader, so every loop-constant
// value is computed here and handed out; both record what they were given.
type recordingCaches struct{ given []*matrix.Matrix }

func (r *recordingCaches) Get(string) (Intermediate, bool) { return Intermediate{}, false }
func (r *recordingCaches) Put(_ string, v Intermediate)    { r.given = append(r.given, v.Data) }
func (r *recordingCaches) Acquire(context.Context, string) (Intermediate, SharedRole, error) {
	return Intermediate{}, SharedLead, nil
}
func (r *recordingCaches) Publish(_ string, v Intermediate, _ float64) {
	r.given = append(r.given, v.Data)
}
func (r *recordingCaches) Fail(string, error) {}

// retained lists the matrix of every value the executor holds on to, by
// where it holds it, and the places that hold a value still deferred — which
// has no matrix yet, and which only the run-local caches may do.
func (e *executor) retained() (held map[string]*matrix.Matrix, deferred []string) {
	out := map[string]*matrix.Matrix{}
	add := func(where string, v *distmat.DistMatrix) {
		if v.Deferred() {
			deferred = append(deferred, where)
			return
		}
		out[where] = v.Data()
	}
	for name, v := range e.env {
		add("env["+name+"]", v)
	}
	for key, v := range e.lseCache {
		if e.checkpoint || e.inter != nil || e.shared != nil {
			// Checkpointed, or handed to a cache or to sibling runs: cells.
			add("env[lseCache["+key+"]]", v)
			continue
		}
		add("lseCache["+key+"]", v)
	}
	for key, v := range e.cseCache {
		add("cseCache["+key+"]", v)
	}
	for key, entry := range e.subtreeCache {
		add("subtreeCache["+key+"]", entry.v)
	}
	for src, tv := range e.transCache {
		add(fmt.Sprintf("env[transCache key %p]", src), src)
		add(fmt.Sprintf("env[transCache[%p]]", src), tv)
	}
	return out, deferred
}

// checkOwnership fails if a retained dense payload is on the free list or
// shared between two distinct retained matrices, if transCache keeps the
// transpose of a value no name is bound to, or if anything but a run-local
// reuse cache holds a value still deferred. It returns how many of those
// there were, and leaves every free buffer full of NaN: a deferred value
// whose leaves are on the free list will not evaluate to what the plain run
// computed.
func checkOwnership(t *testing.T, ctx string, e *executor, rec *recordingCaches) (deferred int) {
	t.Helper()
	idle := map[*float64]bool{}
	for _, buf := range e.ctx.Idle() {
		if idle[&buf[0]] {
			t.Fatalf("%s: a buffer is on the free list twice", ctx)
		}
		idle[&buf[0]] = true
	}
	held, lazy := e.retained()
	for _, at := range lazy {
		if strings.HasPrefix(at, "env[") {
			t.Fatalf("%s: %s is still deferred", ctx, at)
		}
	}
	for i, m := range rec.given {
		held[fmt.Sprintf("handed out #%d", i)] = m
	}
	owner := map[*float64]*matrix.Matrix{}
	where := map[*float64]string{}
	for at, m := range held {
		buf := m.Buffer()
		if len(buf) == 0 {
			continue // CSR: never a destination
		}
		cell := &buf[0]
		if idle[cell] {
			t.Fatalf("%s: %s is retained and on the free list", ctx, at)
		}
		if prev, ok := owner[cell]; ok && prev != m {
			t.Fatalf("%s: %s and %s are distinct values over one buffer", ctx, at, where[cell])
		}
		owner[cell], where[cell] = m, at
	}
	bound := map[*distmat.DistMatrix]bool{}
	for _, v := range e.env {
		bound[v] = true
	}
	for src := range e.transCache {
		if !bound[src] {
			t.Fatalf("%s: transCache keeps the transpose of a value with no binding left", ctx)
		}
	}
	for _, buf := range e.ctx.Idle() {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	return len(lazy)
}

func TestOwnershipRetainedValuesAreNeverRecycled(t *testing.T) {
	deferred := 0
	dense, sparse := smallDataset("cri1", 300, 40), smallDataset("cri2", 300, 120)
	for _, ds := range []*data.Dataset{dense, sparse} {
		for _, alg := range ownershipAlgs {
			for _, strategy := range ownershipStrategies {
				ctx := fmt.Sprintf("%v/%s/%v", alg, ds.Name, strategy)
				c := compileOn(t, alg, ds, strategy, 4)
				plain, err := Run(c, inputsOn(alg, ds))
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				for _, recovery := range []RecoveryKind{RecoverLineage, RecoverCheckpoint} {
					rec := &recordingCaches{}
					e, err := newExecutor(context.Background(), c, inputsOn(alg, ds), nil,
						RunOptions{Intermediates: rec, Shared: rec, Recovery: RecoveryPolicy{Kind: recovery}})
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					iteration := 0
					e.afterIteration = func() {
						iteration++
						deferred += checkOwnership(t, fmt.Sprintf("%s after iteration %d", ctx, iteration), e, rec)
					}
					res, err := e.run()
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if iteration != 4 {
						t.Fatalf("%s: checked %d iterations, want 4", ctx, iteration)
					}
					checkOwnership(t, ctx+" at the end", e, rec)
					// What was handed out early must still hold what a run that
					// hands nothing out computes: compare final values bitwise.
					for name, v := range plain.Env {
						if !sameBits(res.Env[name].Data(), v.Data()) {
							t.Fatalf("%s: %s differs from the plain run", ctx, name)
						}
					}
				}
			}
		}
	}
	if deferred == 0 {
		t.Fatal("no reuse cache ever held a deferred value: the walk never saw one to tell from a bound one")
	}
}

// TestDeferredRunsEqualEagerRuns: under NaNGuard: GuardPerOp every operator's
// result is scanned, so nothing defers (distmat: unobserved) — that run is
// the eager reference, in the tree, with no switch to flip. The plain run,
// which defers every update tail, must end in the same cells, formats and
// counts, bit for bit, and must have charged the same cluster but for the
// scans.
func TestDeferredRunsEqualEagerRuns(t *testing.T) {
	dense, sparse := smallDataset("cri1", 300, 40), smallDataset("cri2", 300, 120)
	for _, ds := range []*data.Dataset{dense, sparse} {
		for _, alg := range ownershipAlgs {
			for _, strategy := range ownershipStrategies {
				ctx := fmt.Sprintf("%v/%s/%v", alg, ds.Name, strategy)
				c := compileOn(t, alg, ds, strategy, 4)
				plain, err := Run(c, inputsOn(alg, ds))
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				eager, err := RunWithOptions(context.Background(), c, inputsOn(alg, ds), nil,
					RunOptions{NaNGuard: integrity.GuardPerOp})
				var poison *integrity.NumericError
				if errors.As(err, &poison) && alg == algorithms.GNMF {
					// 0/0 in the multiplicative update of an all-zero row: the
					// guard does what it is for. GNMF has no rank-one product.
					continue
				}
				if err != nil {
					t.Fatalf("%s under a per-operator guard: %v", ctx, err)
				}
				if len(plain.Env) != len(eager.Env) {
					t.Fatalf("%s: %d bindings, %d in the eager run", ctx, len(plain.Env), len(eager.Env))
				}
				for name, v := range eager.Env {
					if !sameBits(plain.Env[name].Data(), v.Data()) {
						t.Fatalf("%s: %s differs from the eager run", ctx, name)
					}
				}
				if plain.Stats.FLOP != eager.Stats.FLOP {
					t.Fatalf("%s: %g FLOP, eager run %g", ctx, plain.Stats.FLOP, eager.Stats.FLOP)
				}
			}
		}
	}
}

func sameBits(a, b *matrix.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.Format() != b.Format() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		x, y := a.DenseRow(i), b.DenseRow(i)
		for j := range x {
			if math.Float64bits(x[j]) != math.Float64bits(y[j]) {
				return false
			}
		}
	}
	return true
}

// TestOwnershipTransCacheIsBoundedByLiveBindings: the fused transposes of
// loop-variant values (t(d) in DFP, t(s) and t(y) in BFGS) are dropped with
// the binding they were taken from, so the cache does not grow with the
// trip count.
func TestOwnershipTransCacheIsBoundedByLiveBindings(t *testing.T) {
	ds := smallDataset("cri2", 200, 60)
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS} {
		for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Adaptive} {
			const iters = 12
			c := compileOn(t, alg, ds, strategy, iters)
			e, err := newExecutor(context.Background(), c, inputsOn(alg, ds), nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			peak, used := 0, false
			e.afterIteration = func() {
				used = used || len(e.transCache) > 0
				peak = max(peak, len(e.transCache))
				if len(e.transCache) > len(e.env) {
					t.Fatalf("%v/%v: %d fused transposes kept for %d bindings", alg, strategy, len(e.transCache), len(e.env))
				}
			}
			if _, err := e.run(); err != nil {
				t.Fatal(err)
			}
			if !used {
				t.Fatalf("%v/%v: the plan fused no leaf transpose; the test checks nothing", alg, strategy)
			}
			if peak >= iters {
				t.Fatalf("%v/%v: transCache peaked at %d entries over %d iterations", alg, strategy, peak, iters)
			}
		}
	}
}

// lockedCache is a cross-run IntermediateCache safe for concurrent runs.
type lockedCache struct {
	mu sync.Mutex
	m  map[string]Intermediate
}

func (c *lockedCache) Get(key string) (Intermediate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *lockedCache) Put(key string, v Intermediate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// TestOwnershipConcurrentRunsShareInputsAndIntermediates runs pairs of
// queries side by side over the same input matrices and one intermediate
// cache. Under -race, a run writing into anything another run can read — an
// input, a cached intermediate — is reported; without it, the results still
// have to be the solo run's, bit for bit.
func TestOwnershipConcurrentRunsShareInputsAndIntermediates(t *testing.T) {
	ds := smallDataset("cri2", 300, 120)
	for _, alg := range ownershipAlgs {
		c := compileOn(t, alg, ds, opt.Adaptive, 3)
		ins := inputsOn(alg, ds)
		solo, err := Run(c, ins)
		if err != nil {
			t.Fatal(err)
		}
		cache := &lockedCache{m: map[string]Intermediate{}}
		for round := 0; round < 3; round++ { // round 0 fills the cache, later rounds hit it
			results := make([]*Result, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g], errs[g] = RunWithOptions(context.Background(), c, ins, nil, RunOptions{Intermediates: cache})
				}(g)
			}
			wg.Wait()
			for g, res := range results {
				if errs[g] != nil {
					t.Fatalf("%v round %d: %v", alg, round, errs[g])
				}
				for name, v := range solo.Env {
					if !sameBits(res.Env[name].Data(), v.Data()) {
						t.Fatalf("%v round %d run %d: %s differs from the solo run", alg, round, g, name)
					}
				}
			}
		}
		if alg != algorithms.GNMF && len(cache.m) == 0 {
			t.Fatalf("%v: nothing was shared through the intermediate cache", alg)
		}
	}
}

// TestExecAllocBudget bounds what one run of the quasi-Newton solvers
// allocates, in units of one n×n buffer (n²·8 bytes): the rank-two update of
// the inverse Hessian is six (DFP) or nine (BFGS) n×n operators per
// iteration, and it stays an expression until H is bound, so the one value
// an iteration allocates is the H it ends with (distmat: deferred.go).
// No timing is involved, so the bound holds on any machine.
func TestExecAllocBudget(t *testing.T) {
	const n, iters = 320, 3
	// Dense, and with few rows, so that A-sized values (the fused t(A), A·x)
	// are small change beside an n×n one; plans follow the virtual shape.
	ds := data.Generate(data.Spec{Name: "alloc-budget", VRows: 58_400_000, VCols: 8_700, Sparsity: 0.6,
		ScaleRows: 64, ScaleCols: n})
	for _, tc := range []struct {
		alg    algorithms.Name
		budget float64
	}{{algorithms.DFP, 4.5}, {algorithms.BFGS, 4.5}} {
		for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Adaptive} {
			c := compileOn(t, tc.alg, ds, strategy, iters)
			ins := inputsOn(tc.alg, ds)
			if _, err := Run(c, ins); err != nil { // settle lazily counted input metadata
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(c, ins); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			buffers := float64(after.TotalAlloc-before.TotalAlloc) / (n * n * 8)
			t.Logf("%v/%v: %.2f n×n buffers over %d iterations", tc.alg, strategy, buffers, iters)
			if buffers > tc.budget {
				t.Errorf("%v/%v allocated %.2f n×n buffers in %d iterations, budget %g", tc.alg, strategy, buffers, iters, tc.budget)
			}
		}
	}
}
