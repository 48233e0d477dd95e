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
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// The ownership rule, made executable: whatever the executor retains — in
// its slot table, names and reuse slots, or through a cross-run cache or a
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

// retained lists the matrix of every value the executor holds on to, by
// where it holds it — a slot of the slot table, or the fused transpose a
// slot's value keeps — and the places that hold a value still deferred —
// which has no matrix yet, and which only the run-local reuse slots may do —
// with the buffers those will read when they are evaluated.
func (e *executor) retained() (held map[string]*matrix.Matrix, deferred []string, leaves map[string][]float64) {
	out := map[string]*matrix.Matrix{}
	leaves = map[string][]float64{}
	add := func(where string, v *distmat.DistMatrix) {
		if v.Deferred() {
			deferred = append(deferred, where)
			for i, buf := range v.Reads() {
				leaves[fmt.Sprintf("leaf %d of %s", i, where)] = buf
			}
			return
		}
		out[where] = v.Data()
	}
	for k, v := range e.slots {
		if v == nil {
			continue
		}
		label := e.labels[k]
		switch {
		case e.kinds[k] == nameSlot:
			add("env["+label+"]", v)
		case e.kinds[k] == lseSlot && (e.checkpoint || e.lse != nil):
			// Checkpointed, or handed to the source: cells.
			add("env[lse slot "+label+"]", v)
		default:
			add([...]string{"name", "lse", "cse", "subtree"}[e.kinds[k]]+" slot "+label, v)
		}
		if tv := v.Fused(); tv != nil {
			add("env[fused "+label+"]", tv)
		}
	}
	return out, deferred, leaves
}

// reachable is retained plus what was handed to the source and the inputs:
// every buffer something other than the free list can still reach.
func (e *executor) reachable(rec *fakeSource) (held map[string]*matrix.Matrix, deferred []string, leaves map[string][]float64) {
	held, deferred, leaves = e.retained()
	for i, m := range rec.given {
		held[fmt.Sprintf("handed out #%d", i)] = m
	}
	for name, in := range e.inputs {
		held["input "+name] = in.Data
	}
	return held, deferred, leaves
}

// poisonRetired makes e fail the test if a rebound name's previous value
// gives up a buffer something can still reach — a name, a cache, a cache's
// client, an input, an expression still to be evaluated — and fills the
// buffer with NaN there and then, so that a reader the walk does not know of
// would not arrive at the cells of an undisturbed run. It returns the count
// of retirements.
func poisonRetired(t *testing.T, ctx string, e *executor, rec *fakeSource) *int {
	retired := new(int)
	e.afterRetire = func(buf []float64) {
		*retired++
		held, _, leaves := e.reachable(rec)
		for at, m := range held {
			if b := m.Buffer(); len(b) > 0 && &b[0] == &buf[0] {
				t.Fatalf("%s: %s was retired", ctx, at)
			}
		}
		for at, b := range leaves {
			if len(b) > 0 && &b[0] == &buf[0] {
				t.Fatalf("%s: %s was retired", ctx, at)
			}
		}
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	return retired
}

// checkOwnership fails if a retained dense payload or a leaf of a value still
// deferred is on the free list, if a payload is shared between two distinct
// retained matrices, or if anything but a run-local reuse slot holds a value
// still deferred. It returns how many of those there were, and leaves every
// free buffer full of NaN: a deferred value whose leaves are on the free list
// will not evaluate to what the plain run computed.
func checkOwnership(t *testing.T, ctx string, e *executor, rec *fakeSource) (deferred int) {
	t.Helper()
	idle := map[*float64]bool{}
	for _, buf := range e.ctx.Idle() {
		if idle[&buf[0]] {
			t.Fatalf("%s: a buffer is on the free list twice", ctx)
		}
		idle[&buf[0]] = true
	}
	held, lazy, leaves := e.reachable(rec)
	for _, at := range lazy {
		if strings.HasPrefix(at, "env[") {
			t.Fatalf("%s: %s is still deferred", ctx, at)
		}
	}
	for at, buf := range leaves {
		if len(buf) > 0 && idle[&buf[0]] {
			t.Fatalf("%s: %s is on the free list", ctx, at)
		}
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
	for _, buf := range e.ctx.Idle() {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	return len(lazy)
}

func TestOwnershipRetainedValuesAreNeverRecycled(t *testing.T) {
	deferred, retired, hits := 0, 0, 0
	dense, sparse := smallDataset("cri1", 300, 40), smallDataset("cri2", 300, 120)
	type program struct {
		name     string
		prog     *lang.Program
		alg      algorithms.Name // whose inputs it reads
		rebindsH bool
	}
	programs := []program{{"bound twice", lang.MustParse(twiceBoundScript), algorithms.DFP, true}}
	for _, alg := range ownershipAlgs {
		programs = append(programs, program{fmt.Sprint(alg), algorithms.MustProgram(alg, 4), alg,
			alg == algorithms.DFP || alg == algorithms.BFGS})
	}
	for _, ds := range []*data.Dataset{dense, sparse} {
		// A value an algorithm keeps in a reuse slot is cells by the time a
		// statement ends; the twice-bound script's T is still an expression.
		for _, p := range programs {
			for _, strategy := range ownershipStrategies {
				ctx := fmt.Sprintf("%s/%s/%v", p.name, ds.Name, strategy)
				c := compileProgram(t, ctx, p.prog, inputMetas(p.alg, ds), strategy, 4)
				plain, err := runPlain(c, inputsOn(p.alg, ds))
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				// Every recovery policy with a source that never hits, and once
				// more with one that serves what the first run put: values
				// that enter the run as cache hits.
				serving := newFakeSource()
				for _, arm := range []struct {
					recovery RecoveryKind
					rec      *fakeSource
				}{
					{RecoverLineage, &fakeSource{}}, {RecoverCheckpoint, &fakeSource{}}, {RecoverCoded, &fakeSource{}},
					{RecoverLineage, serving}, {RecoverLineage, serving},
				} {
					rec := arm.rec
					opts := RunOptions{LSE: rec, Recovery: RecoveryPolicy{Kind: arm.recovery}}
					e, err := newExecutor(context.Background(), c, inputsOn(p.alg, ds), nil, opts)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					iteration := 0
					e.afterIteration = func() {
						iteration++
						deferred += checkOwnership(t, fmt.Sprintf("%s after iteration %d", ctx, iteration), e, rec)
					}
					gone := poisonRetired(t, ctx, e, rec)
					// Reuse slots live within an iteration: look whenever a
					// holder lets go of a value, too.
					poison := e.afterRetire
					e.afterRetire = func(buf []float64) {
						poison(buf)
						deferred += checkOwnership(t, ctx+" on a retirement", e, rec)
					}
					res, err := e.run()
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if iteration != 4 {
						t.Fatalf("%s: checked %d iterations, want 4", ctx, iteration)
					}
					retired += *gone
					hits += rec.hits
					if p.rebindsH && *gone < 2 {
						// H is rebound four times; the first lets go of an input.
						t.Fatalf("%s: %d values retired, want the H of every iteration but the first and the last", ctx, *gone)
					}
					checkOwnership(t, ctx+" at the end", e, rec)
					// What was handed out early, and what was retired on the way,
					// must leave what a run that hands nothing out computes:
					// compare final values bitwise.
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
		t.Fatal("no reuse slot ever held a deferred value: the walk never saw one to tell from a bound one")
	}
	if retired == 0 || hits == 0 {
		t.Fatalf("%d values retired, %d cache hits served: the walk checked neither", retired, hits)
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
				plain, err := runPlain(c, inputsOn(alg, ds))
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
// loop-variant values (t(d) in DFP, t(s) and t(y) in BFGS) are kept with the
// value they were taken from and go with it, so what the slot table reaches
// does not grow with the trip count.
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
				fused := map[*distmat.DistMatrix]bool{}
				for _, v := range e.slots {
					if v != nil && v.Fused() != nil {
						fused[v.Fused()] = true
					}
				}
				used = used || len(fused) > 0
				peak = max(peak, len(fused))
				if bindings := len(e.env()); len(fused) > bindings {
					t.Fatalf("%v/%v: %d fused transposes kept for %d bindings", alg, strategy, len(fused), bindings)
				}
			}
			if _, err := e.run(); err != nil {
				t.Fatal(err)
			}
			if !used {
				t.Fatalf("%v/%v: the plan fused no leaf transpose; the test checks nothing", alg, strategy)
			}
			if peak >= iters {
				t.Fatalf("%v/%v: the slot table reached %d fused transposes over %d iterations", alg, strategy, peak, iters)
			}
		}
	}
}

// twiceBoundScript binds H twice in one body and, between the two, reads the
// first binding through T = H + d·gᵀ, a subtree that stands twice in the body:
// under identical-subtree CSE it is cached, still deferred, with the first H
// as a leaf, when H is bound again.
const twiceBoundScript = `
A = read("A")
b = read("b")
H = read("H0")
x = read("x0")
i = 0
while (i < 4) {
    g = t(A) %*% (A %*% x - b)
    d = H %*% g
    H = H - (d %*% t(d)) / as.scalar(t(d) %*% d + 1)
    P = (H + d %*% t(g)) * 2
    Q = (H + d %*% t(g)) * 3
    H = H + (d %*% t(d)) * 0.5
    x = x - 0.0001 * ((P - Q + H) %*% g)
    i = i + 1
}
`

// aliasScript gives the value of H a second name before it rebinds H, and
// reads the old cells through that name afterwards: they are dead when the
// last of the two names is rebound, an iteration later, and not before.
const aliasScript = `
A = read("A")
b = read("b")
H = read("H0")
x = read("x0")
i = 0
while (i < 4) {
    g = t(A) %*% (A %*% x - b)
    B = H
    d = B %*% g
    H = H - (d %*% t(d)) / as.scalar(t(d) %*% d + 1)
    x = x - 0.0001 * (B %*% g + H %*% g)
    i = i + 1
}
`

// TestOwnershipRebindingKeepsWhatCanStillBeRead runs the two scripts above
// under every strategy with the walker attached and every retired buffer
// poisoned: nothing a name, a cache or an unevaluated expression can reach is
// retired, and the run ends in the cells of the eager one (a per-operator
// guard defers nothing), which retires the same values and poisons none.
func TestOwnershipRebindingKeepsWhatCanStillBeRead(t *testing.T) {
	ds := smallDataset("cri1", 200, 48)
	metas, ins := inputMetas(algorithms.DFP, ds), inputsOn(algorithms.DFP, ds)
	for name, script := range map[string]string{"bound twice": twiceBoundScript, "alias": aliasScript} {
		lent, aliased, retired := 0, 0, 0
		for _, strategy := range ownershipStrategies {
			ctx := fmt.Sprintf("%s/%v", name, strategy)
			c := compileProgram(t, name, lang.MustParse(script), metas, strategy, 4)
			eager, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{NaNGuard: integrity.GuardPerOp})
			if err != nil {
				t.Fatalf("%s under a per-operator guard: %v", ctx, err)
			}
			rec := &fakeSource{}
			e, err := newExecutor(context.Background(), c, ins, nil, RunOptions{LSE: rec})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			gone := poisonRetired(t, ctx, e, rec)
			// The moments the scripts are about are inside an iteration: look
			// every time a name is about to let go of a value.
			poison := e.afterRetire
			e.afterRetire = func(buf []float64) {
				env := e.env()
				if env["B"] != nil && env["B"] == env["H"] {
					aliased++
				}
				poison(buf)
				// A slot still holding an unevaluated reader of a bound value:
				// the loan is what keeps that value when its name is rebound.
				_, _, leaves := e.retained()
				for _, buf := range leaves {
					for _, v := range env {
						if b := v.Data().Buffer(); len(b) > 0 && len(buf) == len(b) && &b[0] == &buf[0] {
							lent++
						}
					}
				}
			}
			iteration := 0
			e.afterIteration = func() {
				iteration++
				checkOwnership(t, fmt.Sprintf("%s after iteration %d", ctx, iteration), e, rec)
			}
			res, err := e.run()
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			retired += *gone
			if len(res.Env) != len(eager.Env) {
				t.Fatalf("%s: %d bindings, %d in the eager run", ctx, len(res.Env), len(eager.Env))
			}
			for sym, v := range eager.Env {
				if !sameBits(res.Env[sym].Data(), v.Data()) {
					t.Fatalf("%s: %s differs from the eager run", ctx, sym)
				}
			}
		}
		if retired == 0 {
			t.Fatalf("%s: nothing was ever retired; the test checks nothing", name)
		}
		if name == "bound twice" && lent == 0 {
			t.Fatalf("%s: no cache ever held an unevaluated reader of a bound value", name)
		}
		if name == "alias" && aliased == 0 {
			t.Fatalf("%s: B and H never named one value while another was retired", name)
		}
	}
}

// TestOwnershipHandOverIsolatesConcurrentRuns: eight goroutines run DFP and
// BFGS over and over, each run handing its idle buffers to whichever run asks
// next. Every result is kept until the end and must still be, bit for bit,
// the single run's: a buffer handed over while a result could reach it would
// have been written over by then (and under -race the write is reported).
func TestOwnershipHandOverIsolatesConcurrentRuns(t *testing.T) {
	ds := smallDataset("cri2", 160, 140) // n×n = 19 600 cells: handed over
	const goroutines, rounds = 8, 4
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS} {
		c := compileOn(t, alg, ds, opt.Adaptive, 3)
		ins := inputsOn(alg, ds)
		solo, err := runPlain(c, ins)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]*Result, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds && errs[g] == nil; r++ {
					var res *Result
					res, errs[g] = runPlain(c, ins)
					results[g] = append(results[g], res)
				}
			}(g)
		}
		wg.Wait()
		input := map[*matrix.Matrix]bool{}
		for _, in := range ins {
			input[in.Data] = true
		}
		owner := map[*float64]*matrix.Matrix{}
		for g, rs := range results {
			if errs[g] != nil {
				t.Fatalf("%v goroutine %d: %v", alg, g, errs[g])
			}
			for r, res := range rs {
				for name, v := range solo.Env {
					m := res.Env[name].Data()
					if !sameBits(m, v.Data()) {
						t.Fatalf("%v goroutine %d run %d: %s differs from the single run", alg, g, r, name)
					}
					if buf := m.Buffer(); len(buf) > 0 && !input[m] {
						if prev, ok := owner[&buf[0]]; ok && prev != m {
							t.Fatalf("%v goroutine %d run %d: %s stands on a buffer another result holds", alg, g, r, name)
						}
						owner[&buf[0]] = m
					}
				}
			}
		}
	}
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
		solo, err := runPlain(c, ins)
		if err != nil {
			t.Fatal(err)
		}
		cache := newFakeSource()
		for round := 0; round < 3; round++ { // round 0 fills the cache, later rounds hit it
			results := make([]*Result, 2)
			errs := make([]error, 2)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g], errs[g] = RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: cache})
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
		if alg != algorithms.GNMF && len(cache.stored) == 0 {
			t.Fatalf("%v: nothing was shared through the intermediate cache", alg)
		}
	}
}

// TestExecAllocBudget bounds what one run of the quasi-Newton solvers
// allocates, in units of one n×n buffer (n²·8 bytes), whatever its trip count:
// the rank-two update of the inverse Hessian is six (DFP) or nine (BFGS) n×n
// operators per iteration, it stays an expression until H is bound (distmat:
// deferred.go), and the H it replaces is retired into the free list, so a run
// writes into two n×n buffers by turns — the rest of the budget is the
// A-sized values of each iteration, about 1.5 and 1.4 times what they came to
// when the bound was set (0.22 and 1.65 buffers at GOMAXPROCS 1, up to 0.29
// and 1.88 at 64, where more stripes hand off). The fused t(A), 0.2 buffers,
// is not among them: it rides on the input matrix, which the warm-up run
// transposed. The
// hand-over store is emptied first (two collections empty a sync.Pool): the
// bound is that of the first run in a process, and a later run allocates one
// buffer less. No timing is involved, so the bound holds on any machine.
func TestExecAllocBudget(t *testing.T) {
	const n = 320
	// Dense, and with few rows, so that A-sized values (the fused t(A), A·x)
	// are small change beside an n×n one; plans follow the virtual shape.
	ds := data.Generate(data.Spec{Name: "alloc-budget", VRows: 58_400_000, VCols: 8_700, Sparsity: 0.6,
		ScaleRows: 64, ScaleCols: n})
	for _, tc := range []struct {
		iters  int
		budget float64
	}{{3, 2 + 0.33}, {15, 2 + 2.3}} {
		for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS} {
			for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Adaptive} {
				c := compileOn(t, alg, ds, strategy, tc.iters)
				ins := inputsOn(alg, ds)
				if _, err := runPlain(c, ins); err != nil { // settle lazily made input metadata
					t.Fatal(err)
				}
				runtime.GC()
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := runPlain(c, ins); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				buffers := float64(after.TotalAlloc-before.TotalAlloc) / (n * n * 8)
				t.Logf("%v/%v: %.2f n×n buffers over %d iterations", alg, strategy, buffers, tc.iters)
				if buffers > tc.budget {
					t.Errorf("%v/%v allocated %.2f n×n buffers in %d iterations, budget %g", alg, strategy, buffers, tc.iters, tc.budget)
				}
			}
		}
	}
}
