package engine

import (
	"context"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/distmat"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// The transpose an input's matrix carries (matrix.Transposed) is what every
// run's fused t(A) reads: made by the first run over the input, shared by all
// later ones, and never a buffer a run may write into.

// fusedInput runs c over ins on an executor of its own and returns the result
// with the run's value of input A, failing the test if the plan fused no
// transpose of it. each, when not nil, looks at the executor after every
// iteration.
func fusedInput(t *testing.T, c *opt.Compiled, ins map[string]Input, opts RunOptions, each func(*executor)) (*Result, *distmat.DistMatrix) {
	t.Helper()
	e, err := newExecutor(context.Background(), c, ins, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if each != nil {
		e.afterIteration = func() { each(e) }
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	a := e.slots[e.s.Names["A"]]
	if a == nil || a.Fused() == nil {
		t.Fatal("the plan fused no transpose of input A; the test checks nothing")
	}
	return res, a
}

// requireCarriedIntact fails unless input A still carries transpose want, and
// want holds what a fresh transpose of A holds, bit for bit.
func requireCarriedIntact(t *testing.T, what string, a, want *matrix.Matrix) {
	t.Helper()
	if a.Transposed() != want {
		t.Fatalf("%s: input A no longer carries the transpose it had", what)
	}
	if !sameBits(want, a.TransposeInto(nil)) {
		t.Fatalf("%s: the carried transpose differs from a fresh transpose of A", what)
	}
}

// TestCarriedTransposeSharedAcrossRuns: two runs over one input read one
// transpose, and once their results are released, a third run over it never
// has the transpose's buffer idle, to give out as a destination. A dense A
// here has enough cells for a released buffer to be handed over to later
// runs.
func TestCarriedTransposeSharedAcrossRuns(t *testing.T) {
	for _, ds := range []*data.Dataset{smallDataset("cri1", 400, 47), smallDataset("cri2", 300, 120)} {
		for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Adaptive} {
			c := compileOn(t, algorithms.DFP, ds, strategy, 3)
			ins := inputsOn(algorithms.DFP, ds)
			a := ins["A"].Data
			first, a1 := fusedInput(t, c, ins, RunOptions{}, nil)
			second, a2 := fusedInput(t, c, ins, RunOptions{}, nil)
			carried := a.Transposed()
			if a1.Fused().Data() != carried || a2.Fused().Data() != carried {
				t.Fatalf("%s/%v: the runs transposed A themselves", ds.Name, strategy)
			}
			first.Release()
			second.Release()
			third, _ := fusedInput(t, c, ins, RunOptions{}, func(e *executor) {
				buf := carried.Buffer()
				for _, idle := range e.ctx.Idle() {
					if len(buf) > 0 && &idle[0] == &buf[0] {
						t.Fatalf("%s/%v: the carried transpose is on the free list", ds.Name, strategy)
					}
				}
			})
			third.Release()
			requireCarriedIntact(t, ds.Name+"/"+strategy.String(), a, carried)
		}
	}
}

// TestCarriedTransposeSurvivesFaultedRuns: integrity repair replaces a
// value's cells, never the carried transpose's, and coded recovery writes no
// cell at all — a coded run under worker failures reads the carried
// transpose, and after it and a corrupting run under verification, it is
// still the transpose of A.
func TestCarriedTransposeSurvivesFaultedRuns(t *testing.T) {
	ds := smallDataset("cri2", 400, 120)
	c := compileOn(t, algorithms.DFP, ds, opt.Conservative, 15)
	ins := inputsOn(algorithms.DFP, ds)
	a := ins["A"].Data
	carried := a.Transposed()
	for _, tc := range []struct {
		name   string
		opts   RunOptions
		landed func(*Result) bool
		reads  bool // the run must read A and its carried transpose
	}{
		{"coded", RunOptions{
			Faults: fault.NewPlan(fault.Config{
				Seed:                  5,
				WorkerFailuresPerHour: 600,
				StragglersPerHour:     600,
				Workers:               cluster.DefaultConfig().Workers(),
			}),
			Recovery: RecoveryPolicy{Kind: RecoverCoded},
		}, func(r *Result) bool { return r.Stats.CodedRecoveries > 0 }, true},
		{"corrupted", RunOptions{Faults: corruptionPlan(5), Verify: integrity.VerifyABFT},
			func(r *Result) bool { return r.Stats.CorruptionsInjected > 0 }, false},
	} {
		res, in := fusedInput(t, c, ins, tc.opts, nil)
		if !tc.landed(res) {
			t.Fatalf("%s: no fault landed; the test checks nothing", tc.name)
		}
		// A value repaired from a corrupted read is a matrix of the run's
		// own, and so is its transpose.
		if tc.reads && in.Data() != a {
			t.Fatalf("%s: the run's value of A is not the input matrix", tc.name)
		}
		if in.Data() == a && in.Fused().Data() != carried {
			t.Fatalf("%s: the run did not read the carried transpose", tc.name)
		}
		res.Release()
		requireCarriedIntact(t, tc.name, a, carried)
	}
}

// TestCarriedTransposeConcurrentRuns: eight runs start at once over inputs
// nobody has transposed yet. They race to make the transpose, all read the
// one that was published, and answer bit for bit what a run on its own does.
// Under -race, a run writing into the transpose another run reads is
// reported.
func TestCarriedTransposeConcurrentRuns(t *testing.T) {
	ds := smallDataset("cri1", 400, 47)
	c := compileOn(t, algorithms.DFP, ds, opt.Adaptive, 3)
	ins := inputsOn(algorithms.DFP, ds)
	const runs = 8
	results := make([]*Result, runs)
	fused := make([]*matrix.Matrix, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := newExecutor(context.Background(), c, ins, nil, RunOptions{})
			if err != nil {
				errs[g] = err
				return
			}
			if results[g], errs[g] = e.run(); errs[g] == nil {
				if a := e.slots[e.s.Names["A"]]; a != nil && a.Fused() != nil {
					fused[g] = a.Fused().Data()
				}
			}
		}()
	}
	wg.Wait()
	solo, err := runPlain(c, ins)
	if err != nil {
		t.Fatal(err)
	}
	carried := ins["A"].Data.Transposed()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("run %d: %v", g, errs[g])
		}
		if fused[g] != carried {
			t.Fatalf("run %d read a transpose of A other than the carried one", g)
		}
		for name, v := range solo.Env {
			if !sameBits(res.Env[name].Data(), v.Data()) {
				t.Fatalf("run %d: %s differs from the run on its own", g, name)
			}
		}
		res.Release()
	}
	requireCarriedIntact(t, "after the concurrent runs", ins["A"].Data, carried)
}
