package distmat_test

import (
	"context"
	"runtime/debug"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/distmat"
	"remac/internal/engine"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// kernelCall is one operator an engine run reached the kernel of: the
// operands, and whether it ran the kernel or took the cells it was given.
type kernelCall struct {
	kind  string
	a, b  *matrix.Matrix
	given bool
}

// runCounted runs alg on the dataset under Adaptive for iters iterations and
// returns every operator that reached its kernel, in order.
func runCounted(t *testing.T, alg algorithms.Name, ds *data.Dataset, iters int) ([]kernelCall, *engine.Result) {
	t.Helper()
	ins, err := ds.Inputs(alg)
	if err != nil {
		t.Fatal(err)
	}
	metas, inputs := map[string]sparsity.Meta{}, map[string]engine.Input{}
	for _, in := range ins {
		metas[in.Name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
		inputs[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
	}
	c, err := opt.Compile(algorithms.MustProgram(alg, iters), metas, opt.Config{
		Strategy: opt.Adaptive, Estimator: sparsity.MNC{}, Cluster: cluster.DefaultConfig(), Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls []kernelCall
	defer distmat.OnKernel(func(kind string, given bool, a, b *matrix.Matrix) {
		calls = append(calls, kernelCall{kind, a, b, given})
	})()
	res, err := engine.RunWithOptions(context.Background(), c, inputs, nil, engine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return calls, res
}

// group is what a run's operators of one kind did over one pair of operand
// matrices: how often they ran the kernel and how often they were given it.
type group struct{ ran, given int }

// groups sums the calls by kind and operands.
func groups(calls []kernelCall) map[kernelCall]group {
	gs := map[kernelCall]group{}
	for _, c := range calls {
		key := kernelCall{kind: c.kind, a: c.a, b: c.b}
		g := gs[key]
		if c.given {
			g.given++
		} else {
			g.ran++
		}
		gs[key] = g
	}
	return gs
}

// TestRepeatKernelsRunOncePerValue: Adaptive DFP on cri2 computes H·g three
// times an iteration — d = H·g is inlined into two statements, and the CSE
// A'·A·H·g computes it again — and charges it three times, but runs the
// kernel once; GNMF's loop-invariant V * V and sum(V * V) run once a run and
// are charged every iteration. The collector is off while the runs go, so
// that no matrix of an earlier iteration leaves its address to a later one.
func TestRepeatKernelsRunOncePerValue(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const iters = 3
	ds := data.MustLoad("cri2")
	calls, res := runCounted(t, algorithms.DFP, ds, iters)
	hg, last := 0, false
	for key, g := range groups(calls) {
		if key.kind != "mul" || key.a.Rows() != key.a.Cols() || key.b.Cols() != 1 || g.ran+g.given != 3 {
			continue
		}
		if hg++; g.ran != 1 {
			t.Errorf("an H·g kernel ran %d times for 3 charges", g.ran)
		}
		last = last || key.b == res.Env["g"].Data()
	}
	if hg != iters || !last {
		t.Errorf("%d products of H and a vector charged three times, want one an iteration (%d), the last over the last g (%v)", hg, iters, last)
	}

	calls, _ = runCounted(t, algorithms.GNMF, ds, iters)
	v, sums := ds.A, 0
	for key, g := range groups(calls) {
		switch {
		case key.kind == "ewise" && key.a == v && key.b == v:
			if g.ran != 1 || g.given != iters-1 {
				t.Errorf("V * V ran %d times and was given %d, want 1 and %d", g.ran, g.given, iters-1)
			}
		case key.kind == "sum" && key.a.Rows() == v.Rows() && key.a.Cols() == v.Cols() && g.ran+g.given == iters:
			if sums++; g.ran != 1 {
				t.Errorf("sum(V * V) ran %d times for %d charges", g.ran, iters)
			}
		}
	}
	if sums != 1 {
		t.Errorf("%d sums over V's shape charged every iteration, want sum(V * V) alone", sums)
	}
}
