package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/opt"
	"remac/internal/trace"
)

// recomputed is s with every repeat computed again: the run a schedule with
// no repeat slots makes, with the same charges.
func recomputed(s *opt.Schedule) *opt.Schedule {
	flat := *s
	flat.Code = slices.Clone(s.Code)
	for i := range flat.Code {
		flat.Code[i].Repeat = false
	}
	return &flat
}

// repeats counts the instructions of s that are repeats.
func repeats(s *opt.Schedule) (n int) {
	for _, in := range s.Code {
		if in.Repeat {
			n++
		}
	}
	return n
}

// runOn runs c through schedule s under opts, traced, and cancels the run
// after iteration cancelAfter if that is positive. It returns the result,
// the error and the spans with their wall time zeroed.
func runOn(t *testing.T, c *opt.Compiled, s *opt.Schedule, ins map[string]Input, opts RunOptions, cancelAfter int) (*Result, error, []trace.Span) {
	t.Helper()
	goCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := trace.New()
	e, err := newExecutor(goCtx, c, ins, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.s = s
	iteration := 0
	e.afterIteration = func() {
		if iteration++; iteration == cancelAfter {
			cancel()
		}
	}
	res, err := e.run()
	spans := rec.Spans()
	for i := range spans {
		spans[i].WallNS = 0
	}
	return res, err, spans
}

// TestRepeatRunsEqualRecomputedRuns: a repeat takes the cells of its value's
// first computation in place of its kernel's, and that is all it changes. The
// same run with every repeat computed again must return the same Stats,
// spans (but for wall time), values and error: with no faults, under every
// recovery policy with fail-stop faults, with bit flips under digests, under
// ABFT and unverified (where flips escape and poison what follows), under a
// per-operator guard, and cancelled mid-run.
func TestRepeatRunsEqualRecomputedRuns(t *testing.T) {
	arms := []struct {
		name        string
		opts        func() RunOptions // a fault plan is used up by its run
		cancelAfter int
	}{
		{"clean", func() RunOptions { return RunOptions{} }, 0},
		{"lineage", func() RunOptions { return RunOptions{Faults: failStopPlan(5)} }, 0},
		{"checkpoint", func() RunOptions {
			return RunOptions{Faults: failStopPlan(5), Recovery: RecoveryPolicy{Kind: RecoverCheckpoint}}
		}, 0},
		{"coded", func() RunOptions {
			return RunOptions{Faults: failStopPlan(5), Recovery: RecoveryPolicy{Kind: RecoverCoded}}
		}, 0},
		{"digest", func() RunOptions { return RunOptions{Faults: corruptionPlan(5), Verify: integrity.VerifyDigest} }, 0},
		{"abft", func() RunOptions { return RunOptions{Faults: corruptionPlan(5), Verify: integrity.VerifyABFT} }, 0},
		{"unverified", func() RunOptions { return RunOptions{Faults: corruptionPlan(5)} }, 0},
		{"guard", func() RunOptions { return RunOptions{NaNGuard: integrity.GuardPerOp} }, 0},
		{"cancelled", func() RunOptions { return RunOptions{} }, 2},
	}
	marked, escaped, repaired, failed := 0, 0, 0, 0
	for _, ds := range []*data.Dataset{smallDataset("cri1", 300, 40), smallDataset("cri2", 300, 120)} {
		for _, alg := range ownershipAlgs {
			for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Explicit, opt.Adaptive} {
				c := compileOn(t, alg, ds, strategy, 4)
				s, err := c.Schedule()
				if err != nil {
					t.Fatal(err)
				}
				marked += repeats(s)
				ins := inputsOn(alg, ds)
				for _, arm := range arms {
					what := fmt.Sprintf("%v/%s/%v/%s", alg, ds.Name, strategy, arm.name)
					res, err, spans := runOn(t, c, s, ins, arm.opts(), arm.cancelAfter)
					want, wantErr, wantSpans := runOn(t, c, recomputed(s), ins, arm.opts(), arm.cancelAfter)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, recomputed %v", what, err, wantErr)
					}
					if !reflect.DeepEqual(spans, wantSpans) {
						t.Fatalf("%s: %d spans differ from the recomputed run's %d", what, len(spans), len(wantSpans))
					}
					if err != nil {
						failed++
						continue
					}
					if !reflect.DeepEqual(res.Stats, want.Stats) || res.Iterations != want.Iterations {
						t.Fatalf("%s: charged %+v, recomputed %+v", what, res.Stats, want.Stats)
					}
					for name, v := range want.Env {
						if !sameBits(res.Env[name].Data(), v.Data()) {
							t.Fatalf("%s: %s differs from the recomputed run", what, name)
						}
					}
					st := res.Stats
					escaped += st.CorruptionsInjected - st.CorruptionsDigest - st.CorruptionsABFT
					repaired += st.IntegrityRepairs
				}
			}
		}
	}
	if marked == 0 || escaped == 0 || repaired == 0 || failed == 0 {
		t.Fatalf("%d repeats, %d escaped and %d repaired corruptions, %d failed runs: the test compares too little",
			marked, escaped, repaired, failed)
	}
}

// repeatScript binds z to a repeat of y's value, then rebinds x, which both
// read: z holds the cells of y's computation after its repeat slot clears,
// and after y lets go of them.
const repeatScript = `
A = read("A")
x = read("x0")
i = 0
while (i < 4) {
    y = t(A) %*% (A %*% x)
    z = t(A) %*% (A %*% x)
    x = x - 0.0001 * y
    i = i + 1
}
`

// TestRepeatValueOutlivesItsSlot: under NoElimination, which eliminates
// nothing, z is bound to a repeat of y's value, over its cells. No buffer
// that y or z can still read is ever idle or retired: after every iteration
// and at every retirement, the walk of TestOwnershipRetainedValuesAreNever-
// Recycled finds none; the run ends in the recomputed run's cells.
func TestRepeatValueOutlivesItsSlot(t *testing.T) {
	ds := smallDataset("cri2", 300, 120)
	c := compileProgram(t, "repeat", lang.MustParse(repeatScript), inputMetas(algorithms.DFP, ds), opt.NoElimination, 4)
	s, err := c.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if repeats(s) == 0 {
		t.Fatal("z's product is not a repeat: the test checks nothing")
	}
	ins := inputsOn(algorithms.DFP, ds)
	want, _, _ := runOn(t, c, recomputed(s), ins, RunOptions{}, 0)
	rec := &fakeSource{}
	e, err := newExecutor(context.Background(), c, ins, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	e.afterIteration = func() {
		y, z := e.slots[s.Names["y"]], e.slots[s.Names["z"]]
		if y.Data() == z.Data() {
			shared++
		}
		checkOwnership(t, fmt.Sprintf("after iteration %d", shared), e, rec)
	}
	gone := poisonRetired(t, "repeat", e, rec)
	poison := e.afterRetire
	e.afterRetire = func(buf []float64) {
		poison(buf)
		checkOwnership(t, "on a retirement", e, rec)
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if shared != 4 || *gone == 0 {
		t.Fatalf("z took y's cells in %d of 4 iterations, %d values retired: the walk saw no repeat outlive its slot", shared, *gone)
	}
	for name, v := range want.Env {
		if !sameBits(res.Env[name].Data(), v.Data()) {
			t.Fatalf("%s differs from the recomputed run", name)
		}
	}
	res.Release()
}
