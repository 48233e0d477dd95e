package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/lang"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// allStrategies is every strategy; Manual with no keys applies nothing.
var allStrategies = append(append([]opt.Strategy(nil), ownershipStrategies...), opt.Manual)

// TestStrategiesAgreeAroundTheLoop: reuse holds outside the loop body too.
// A pre-loop statement that repeats a subtree of the body, and a post-loop
// statement that reads a name the body rebinds, must leave every strategy
// with the values NoElimination computes (within the tolerance of
// TestAllStrategiesAgreeNumerically).
func TestStrategiesAgreeAroundTheLoop(t *testing.T) {
	ds := data.MustLoad("cri1")
	metas, ins := inputMetas(algorithms.DFP, ds), inputsOn(algorithms.DFP, ds)
	for _, tc := range []struct {
		name, script string
		names        []string
	}{
		{"pre-loop repeat of a body subtree", `
A = read("A")
x = read("x0")
i = 0
y = t(A) %*% A %*% x
while (i < 3) {
    g = t(A) %*% A %*% x + t(A) %*% A %*% y
    x = x - 0.0001 * g
    i = i + 1
}
`, []string{"y", "x"}},
		{"post-loop read after a versioned update", `
H = read("H0")
x = read("x0")
i = 0
while (i < 3) {
    s = sum(H %*% x) + sum(H %*% x)
    H = H * 0.5 + 0.001 * s
    i = i + 1
}
r = sum(H %*% x)
`, []string{"H", "r"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := lang.MustParse(tc.script)
			var want *Result
			for _, strategy := range allStrategies {
				c := compileProgram(t, tc.name, prog, metas, strategy, 3)
				got, err := func() (res *Result, err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					return runPlain(c, ins)
				}()
				if err != nil {
					t.Errorf("%v: %v", strategy, err)
					continue
				}
				if want == nil {
					want = got // NoElimination runs first
					continue
				}
				for _, name := range tc.names {
					if !got.Env[name].Data().ApproxEqual(want.Env[name].Data(), 1e-6) {
						t.Errorf("%v: %s = %v, NoElimination %v", strategy, name,
							got.Env[name].Data().At(0, 0), want.Env[name].Data().At(0, 0))
					}
				}
			}
		})
	}
}

// TestIterationAllocBudget bounds the bytes one more iteration allocates, as
// (15-iteration run − 3-iteration run) / 12, on cri1, where every value is
// small: what grows with the trip count here is the executor's own
// bookkeeping and the values it fails to recycle, not the kernels' output.
// Each run is the second of its plan, after two collections, like
// TestExecAllocBudget; bytes are counted, not time, so the bound holds on any
// machine.
func TestIterationAllocBudget(t *testing.T) {
	ds := data.MustLoad("cri1")
	for _, alg := range ownershipAlgs {
		for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Explicit, opt.Conservative, opt.Adaptive} {
			var bytes [2]float64
			for i, iters := range []int{3, 15} {
				c := compileOn(t, alg, ds, strategy, iters)
				ins := inputsOn(alg, ds)
				if _, err := runPlain(c, ins); err != nil {
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
				bytes[i] = float64(after.TotalAlloc - before.TotalAlloc)
			}
			perIter := (bytes[1] - bytes[0]) / 12
			t.Logf("%v/%v: %.1f KB per iteration", alg, strategy, perIter/1024)
			if budget := iterationBudget[alg]; perIter > budget {
				t.Errorf("%v/%v allocated %.1f KB per iteration, budget %.1f KB", alg, strategy, perIter/1024, budget/1024)
			}
		}
	}
}

// iterationBudget is the per-iteration allocation bound of
// TestIterationAllocBudget, in bytes: about 1.4 times the most any of the four
// strategies allocated on one to eight processors (12, 31, 21 and 19 KB).
var iterationBudget = map[algorithms.Name]float64{
	algorithms.GD:   16 << 10,
	algorithms.DFP:  44 << 10,
	algorithms.BFGS: 30 << 10,
	algorithms.GNMF: 26 << 10,
}

// TestRunsShareOneSchedule: a compiled plan is lowered once, by its first
// run, and every later run reads the schedule that run built; setting up a
// run of a warmed plan allocates only what the run owns: its executor, slot
// values, cluster and context.
func TestRunsShareOneSchedule(t *testing.T) {
	ds := data.MustLoad("cri2")
	for _, alg := range ownershipAlgs {
		c := compileOn(t, alg, ds, opt.Adaptive, 3)
		ins := inputsOn(alg, ds)
		setUp := func() *executor {
			e, err := newExecutor(context.Background(), c, ins, nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		first := setUp()
		if _, err := first.run(); err != nil {
			t.Fatal(err)
		}
		if second := setUp(); second.s != first.s {
			t.Errorf("%v: the second run lowered the plan again", alg)
		}
		allocs := testing.AllocsPerRun(20, func() { setUp() })
		t.Logf("%v: %.0f allocations to set a run up", alg, allocs)
		if allocs > 8 {
			t.Errorf("%v: setting a run of a warmed plan up took %.0f allocations, budget 8", alg, allocs)
		}
	}
}

// TestConcurrentFirstRunsShareOneSchedule: eight runs that are all the first
// of one plan race to lower it, under every strategy whose schedule differs —
// the raw body, identical-subtree slots, option slots, a hand-picked
// combination — and each returns what a solo run of its own plan returns, bit
// for bit, with the same charges. Run it under -race.
func TestConcurrentFirstRunsShareOneSchedule(t *testing.T) {
	const runs = 8
	ds := data.MustLoad("cri1")
	ins := inputsOn(algorithms.DFP, ds)
	compile := func(strategy opt.Strategy) *opt.Compiled {
		c, err := opt.Compile(algorithms.MustProgram(algorithms.DFP, 3), inputMetas(algorithms.DFP, ds), opt.Config{
			Strategy: strategy, Estimator: sparsity.MNC{}, Cluster: cluster.DefaultConfig(), Iterations: 3,
			ManualKeys: []string{"A'·A", "H·g·g'·H"}, // Fig 3's pair
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, strategy := range []opt.Strategy{opt.NoElimination, opt.Explicit, opt.Conservative, opt.Adaptive, opt.Manual} {
		solo, err := runPlain(compile(strategy), ins)
		if err != nil {
			t.Fatal(err)
		}
		c := compile(strategy)
		if strategy == opt.Manual && len(c.Decision.Selected) == 0 {
			t.Fatal("Manual selected no option; the test checks nothing of its slots")
		}
		results, errs := make([]*Result, runs), make([]error, runs)
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				results[g], errs[g] = runPlain(c, ins)
			}()
		}
		start.Done()
		wg.Wait()
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("%v run %d: %v", strategy, g, errs[g])
			}
			if !reflect.DeepEqual(res.Stats, solo.Stats) || res.Iterations != solo.Iterations {
				t.Errorf("%v run %d: charged %+v, the solo run %+v", strategy, g, res.Stats, solo.Stats)
			}
			for name, v := range solo.Env {
				if !sameBits(res.Env[name].Data(), v.Data()) {
					t.Errorf("%v run %d: %s differs from the solo run", strategy, g, name)
				}
			}
		}
	}
}
