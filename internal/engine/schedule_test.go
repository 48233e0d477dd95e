package engine

import (
	"fmt"
	"runtime"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/lang"
	"remac/internal/opt"
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
