package engine

import (
	"reflect"
	"runtime"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// TestRunIndependentOfStripeCount: a whole run — DFP on cri2's dense updates,
// BFGS on zipf-1.4's skewed CSR — binds the same values, bit for bit, and
// charges the same simulated cluster whether its kernels stripe over one
// processor or four.
func TestRunIndependentOfStripeCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		alg algorithms.Name
		ds  string
	}{{algorithms.DFP, "cri2"}, {algorithms.BFGS, "zipf-1.4"}} {
		c := compileFor(t, tc.alg, tc.ds, opt.Adaptive)
		var digests [2]uint64
		var stats [2]cluster.Stats
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			res, err := runPlain(c, inputsFor(t, tc.alg, tc.ds))
			if err != nil {
				t.Fatalf("%v/%s at GOMAXPROCS %d: %v", tc.alg, tc.ds, procs, err)
			}
			values := map[string]*matrix.Matrix{}
			for name, v := range res.Env {
				values[name] = v.Data()
			}
			digests[i], stats[i] = integrity.DigestValues(values), res.Stats
		}
		if digests[0] != digests[1] {
			t.Errorf("%v/%s: values digest %#x at GOMAXPROCS 1, %#x at 4", tc.alg, tc.ds, digests[0], digests[1])
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%v/%s: cluster stats differ:\n%+v at GOMAXPROCS 1\n%+v at 4", tc.alg, tc.ds, stats[0], stats[1])
		}
	}
}
