package engine

import (
	"fmt"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/opt"
)

// BenchmarkQuasiNewtonRun times whole engine runs of the two quasi-Newton
// solvers on cri2 (2000×870, so H is 870×870) at the benchmark's trip count
// and at the paper's, the plan compiled outside the loop. B/op is the
// allocation of one run: with the previous H of every iteration retired and a
// finished run's idle buffers handed to the next, it does not grow with the
// trip count by an n×n buffer (6 MB) per iteration. The explicit/ and
// conservative/ cases run DFP through the reuse slots of identical-subtree
// CSE. Run with
//
//	go test -run '^$' -bench QuasiNewtonRun -benchtime 20x ./internal/engine
func BenchmarkQuasiNewtonRun(b *testing.B) {
	ds := data.MustLoad("cri2")
	type config struct {
		alg      algorithms.Name
		strategy opt.Strategy
		name     string
	}
	configs := []config{{algorithms.DFP, opt.Adaptive, "DFP"}, {algorithms.BFGS, opt.Adaptive, "BFGS"},
		{algorithms.DFP, opt.Explicit, "explicit/DFP"}, {algorithms.DFP, opt.Conservative, "conservative/DFP"}}
	for _, cf := range configs {
		for _, iters := range []int{3, 15} {
			c := compileOn(b, cf.alg, ds, cf.strategy, iters)
			ins := inputsOn(cf.alg, ds)
			b.Run(fmt.Sprintf("%s/%d", cf.name, iters), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runPlain(c, ins); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
