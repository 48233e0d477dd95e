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
// trip count by an n×n buffer (6 MB) per iteration. Run with
//
//	go test -run '^$' -bench QuasiNewtonRun -benchtime 20x ./internal/engine
func BenchmarkQuasiNewtonRun(b *testing.B) {
	ds := data.MustLoad("cri2")
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS} {
		for _, iters := range []int{3, 15} {
			c := compileOn(b, alg, ds, opt.Adaptive, iters)
			ins := inputsOn(alg, ds)
			b.Run(fmt.Sprintf("%v/%d", alg, iters), func(b *testing.B) {
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
