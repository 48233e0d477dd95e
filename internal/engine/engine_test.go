package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/distmat"
	"remac/internal/lang"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// runPlain is the one entry point with no context, recorder or options.
func runPlain(c *opt.Compiled, inputs map[string]Input) (*Result, error) {
	return RunWithOptions(context.Background(), c, inputs, nil, RunOptions{})
}

// compileAndRun compiles a workload for one dataset and strategy and runs
// it end to end.
func compileAndRun(t *testing.T, alg algorithms.Name, dsName string, strategy opt.Strategy) *Result {
	t.Helper()
	c := compileFor(t, alg, dsName, strategy)
	res, err := runPlain(c, inputsFor(t, alg, dsName))
	if err != nil {
		t.Fatalf("%v/%s/%v: run: %v", alg, dsName, strategy, err)
	}
	return res
}

func compileFor(t *testing.T, alg algorithms.Name, dsName string, strategy opt.Strategy) *opt.Compiled {
	t.Helper()
	return compileOn(t, alg, data.MustLoad(dsName), strategy, 5)
}

// compileOn compiles a workload over a dataset. ReMac's reported
// configuration uses the MNC estimator (§6.3.2); it also matches the
// runtime's own cost propagation.
func compileOn(t testing.TB, alg algorithms.Name, ds *data.Dataset, strategy opt.Strategy, iters int) *opt.Compiled {
	t.Helper()
	return compileProgram(t, fmt.Sprintf("%v/%s", alg, ds.Name), algorithms.MustProgram(alg, iters), inputMetas(alg, ds), strategy, iters)
}

// compileProgram is compileOn for a program of the test's own.
func compileProgram(t testing.TB, what string, prog *lang.Program, metas map[string]sparsity.Meta, strategy opt.Strategy, iters int) *opt.Compiled {
	t.Helper()
	c, err := opt.Compile(prog, metas, opt.Config{
		Strategy:   strategy,
		Estimator:  sparsity.MNC{},
		Cluster:    cluster.DefaultConfig(),
		Iterations: iters,
	})
	if err != nil {
		t.Fatalf("%s/%v: compile: %v", what, strategy, err)
	}
	return c
}

func inputMetas(alg algorithms.Name, ds *data.Dataset) map[string]sparsity.Meta {
	aMeta := sparsity.Virtualize(sparsity.MetaOf(ds.A), ds.VRows, ds.VCols)
	if alg == algorithms.GNMF {
		w, h := ds.GNMFFactors(10)
		return map[string]sparsity.Meta{
			"V":  aMeta,
			"W0": sparsity.Virtualize(sparsity.MetaOf(w), ds.VRows, 10),
			"H0": sparsity.Virtualize(sparsity.MetaOf(h), 10, ds.VCols),
		}
	}
	return map[string]sparsity.Meta{
		"A":  aMeta,
		"b":  sparsity.Virtualize(sparsity.MetaOf(ds.Label()), ds.VRows, 1),
		"H0": sparsity.Virtualize(sparsity.MetaOf(ds.InitialH()), ds.VCols, ds.VCols),
		"x0": sparsity.Virtualize(sparsity.MetaOf(ds.InitialX()), ds.VCols, 1),
	}
}

func inputsFor(t *testing.T, alg algorithms.Name, dsName string) map[string]Input {
	t.Helper()
	return inputsOn(alg, data.MustLoad(dsName))
}

// inputsOn binds a dataset's standard symbols for a workload.
func inputsOn(alg algorithms.Name, ds *data.Dataset) map[string]Input {
	if alg == algorithms.GNMF {
		w, h := ds.GNMFFactors(10)
		return map[string]Input{
			"V":  {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols},
			"W0": {Data: w, VRows: ds.VRows, VCols: 10},
			"H0": {Data: h, VRows: 10, VCols: ds.VCols},
		}
	}
	return map[string]Input{
		"A":  {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols},
		"b":  {Data: ds.Label(), VRows: ds.VRows, VCols: 1},
		"H0": {Data: ds.InitialH(), VRows: ds.VCols, VCols: ds.VCols},
		"x0": {Data: ds.InitialX(), VRows: ds.VCols, VCols: 1},
	}
}

// TestAllStrategiesAgreeNumerically is the central soundness test: every
// strategy must produce the same final values (redundancy elimination is a
// pure performance transform; §3.3: "the found options would not affect the
// expression results").
func TestAllStrategiesAgreeNumerically(t *testing.T) {
	for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.GNMF} {
		target := "x"
		if alg == algorithms.GNMF {
			target = "W"
		}
		ref := compileAndRun(t, alg, "cri2", opt.NoElimination)
		want := ref.Env[target]
		if want == nil {
			t.Fatalf("%v: target %q not computed", alg, target)
		}
		for _, s := range []opt.Strategy{opt.Explicit, opt.Conservative, opt.Aggressive, opt.Automatic, opt.Adaptive} {
			got := compileAndRun(t, alg, "cri2", s)
			if got.Env[target] == nil {
				t.Fatalf("%v/%v: target missing", alg, s)
			}
			if !got.Env[target].Data().ApproxEqual(want.Data(), 1e-6) {
				t.Errorf("%v: strategy %v changed the result", alg, s)
			}
		}
	}
}

func TestIterationCountHonored(t *testing.T) {
	res := compileAndRun(t, algorithms.GD, "cri1", opt.NoElimination)
	if res.Iterations != 5 {
		t.Fatalf("iterations = %d, want 5", res.Iterations)
	}
}

func TestInputPartitionCharged(t *testing.T) {
	res := compileAndRun(t, algorithms.GD, "cri2", opt.NoElimination)
	if res.InputPartitionSec <= 0 {
		t.Fatal("input partition phase not charged")
	}
	if res.Stats.BytesFor(cluster.DFS) <= 0 {
		t.Fatal("no dfs bytes for the dataset read")
	}
}

func TestAdaptiveNotSlowerThanBaselines(t *testing.T) {
	// Fig 9's qualitative claim: adaptive ≤ min(conservative, aggressive)
	// in simulated time (up to model noise).
	exec := func(s opt.Strategy, dsName string) float64 {
		r := compileAndRun(t, algorithms.DFP, dsName, s)
		return r.Stats.TotalTime() - r.InputPartitionSec
	}
	for _, dsName := range []string{"cri1", "cri3"} {
		adaptive := exec(opt.Adaptive, dsName)
		conservative := exec(opt.Conservative, dsName)
		aggressive := exec(opt.Aggressive, dsName)
		limit := math.Min(conservative, aggressive) * 1.15
		if adaptive > limit {
			t.Errorf("%s: adaptive %.1fs > min(conservative %.1fs, aggressive %.1fs)",
				dsName, adaptive, conservative, aggressive)
		}
	}
}

func TestEliminationReducesTimeOnTallData(t *testing.T) {
	// cri1 (47 columns): the AᵀA LSE is nearly free via TSMM, so adaptive
	// must beat the no-elimination baseline substantially. Input partition
	// is excluded, matching the paper's pre-partitioned measurements.
	b := compileAndRun(t, algorithms.DFP, "cri1", opt.NoElimination)
	a := compileAndRun(t, algorithms.DFP, "cri1", opt.Adaptive)
	base := b.Stats.TotalTime() - b.InputPartitionSec
	adaptive := a.Stats.TotalTime() - a.InputPartitionSec
	if adaptive >= base {
		t.Fatalf("adaptive (%.1fs) not faster than SystemDS* (%.1fs) on cri1", adaptive, base)
	}
	if base/adaptive < 1.5 {
		t.Errorf("speedup only %.2fx on cri1; expected a clear win", base/adaptive)
	}
}

func TestLSEHoistedOnceAcrossIterations(t *testing.T) {
	// With the AᵀA LSE applied, the expensive product must be charged once,
	// not per iteration: doubling iterations must not double total time by
	// the producer's share.
	run := func(iters int) float64 {
		prog := algorithms.MustProgram(algorithms.GD, iters)
		ds := data.MustLoad("cri1")
		c, err := opt.Compile(prog, inputMetas(algorithms.GD, ds), opt.Config{
			Strategy: opt.Adaptive, Estimator: sparsity.MNC{}, Cluster: cluster.DefaultConfig(), Iterations: iters,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runPlain(c, inputsFor(t, algorithms.GD, "cri1"))
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalTime()
	}
	t5, t10 := run(5), run(10)
	perIter5, perIter10 := t5/5, t10/10
	if perIter10 > perIter5 {
		t.Errorf("per-iteration time grew with more iterations (%.2f vs %.2f): LSE not amortizing", perIter10, perIter5)
	}
}

func TestRunErrorsOnMissingInput(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri2", opt.NoElimination)
	_, err := runPlain(c, map[string]Input{})
	if err == nil {
		t.Fatal("missing inputs accepted")
	}
}

func TestLoopGuard(t *testing.T) {
	prog := lang.MustParse(`
i = 0
while (i < 1) {
    j = 1
}
`)
	c, err := opt.Compile(prog, nil, opt.Config{Strategy: opt.NoElimination, Cluster: cluster.DefaultConfig(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlain(c, nil); err == nil {
		t.Fatal("infinite loop not caught")
	}
}

func TestScalarConditionForms(t *testing.T) {
	prog := lang.MustParse(`
i = 0
n = 3
while (i + 1 <= n) {
    i = i + 1
}
`)
	c, err := opt.Compile(prog, nil, opt.Config{Strategy: opt.NoElimination, Cluster: cluster.DefaultConfig(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlain(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", res.Iterations)
	}
}

func TestExplicitStrategyReusesSubtrees(t *testing.T) {
	// Explicit CSE must reduce simulated time versus SystemDS* whenever
	// identical subtrees repeat (DFP's H·g etc.).
	base := compileAndRun(t, algorithms.DFP, "cri2", opt.NoElimination).Stats
	explicit := compileAndRun(t, algorithms.DFP, "cri2", opt.Explicit).Stats
	if explicit.TotalTime() > base.TotalTime() {
		t.Fatalf("explicit CSE (%.1fs) slower than no elimination (%.1fs)", explicit.TotalTime(), base.TotalTime())
	}
	if explicit.Ops >= base.Ops {
		t.Errorf("explicit CSE should execute fewer operators (%d vs %d)", explicit.Ops, base.Ops)
	}
}

func TestGDNumericallyConverges(t *testing.T) {
	// Sanity: the optimized run actually reduces the residual ‖Ax−b‖.
	res := compileAndRun(t, algorithms.GD, "cri1", opt.Adaptive)
	ds := data.MustLoad("cri1")
	x := res.Env["x"].Data()
	b := ds.Label()
	res0 := ds.A.Mul(ds.InitialX()).Sub(b).FrobeniusNorm()
	resN := ds.A.Mul(x).Sub(b).FrobeniusNorm()
	if resN >= res0 {
		t.Fatalf("GD did not reduce the residual: %.4f -> %.4f", res0, resN)
	}
}

func TestResultTotalSec(t *testing.T) {
	res := compileAndRun(t, algorithms.GD, "cri2", opt.Adaptive)
	if res.TotalSec() < res.Stats.TotalTime() {
		t.Fatal("TotalSec must include compilation")
	}
}

func TestPartialDFPRuns(t *testing.T) {
	ds := data.MustLoad("cri2")
	prog := algorithms.MustProgram(algorithms.PartialDFP, 1)
	metas := map[string]sparsity.Meta{
		"A":  sparsity.MetaOf(ds.A).WithVirtualDims(ds.VRows, ds.VCols),
		"H0": sparsity.MetaOf(ds.InitialH()).WithVirtualDims(ds.VCols, ds.VCols),
		"x0": sparsity.MetaOf(ds.InitialX()).WithVirtualDims(ds.VCols, 1),
	}
	c, err := opt.Compile(prog, metas, opt.Config{Strategy: opt.Adaptive, Cluster: cluster.DefaultConfig(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlain(c, map[string]Input{
		"A":  {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols},
		"H0": {Data: ds.InitialH(), VRows: ds.VCols, VCols: ds.VCols},
		"x0": {Data: ds.InitialX(), VRows: ds.VCols, VCols: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Env["r"] == nil || !res.Env["r"].Data().IsScalar() {
		t.Fatal("partial DFP result missing or non-scalar")
	}
}

func TestDistmatValuesMatchPlainEval(t *testing.T) {
	// The distmat execution path must agree with the plain matrix kernels.
	ds := data.MustLoad("cri2")
	ctx := distmat.NewContext(cluster.New(cluster.DefaultConfig()))
	a := distmat.New(ctx, ds.A, 0, 0)
	x := distmat.New(ctx, ds.InitialX(), 0, 0)
	got := a.Mul(x).Data()
	want := ds.A.Mul(ds.InitialX())
	if !got.ApproxEqual(want, 1e-10) {
		t.Fatal("distmat value drift")
	}
	_ = matrix.Scalar(0) // keep matrix import for Input construction below
}

func TestNRowNColInScripts(t *testing.T) {
	prog := lang.MustParse(`
A = read("A")
n = nrow(A)
m = ncol(A)
r = n / m
`)
	ds := data.MustLoad("cri2")
	c, err := opt.Compile(prog, map[string]sparsity.Meta{
		"A": sparsity.Virtualize(sparsity.MetaOf(ds.A), ds.VRows, ds.VCols),
	}, opt.Config{Strategy: opt.NoElimination, Cluster: cluster.DefaultConfig(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPlain(c, map[string]Input{"A": {Data: ds.A, VRows: ds.VRows, VCols: ds.VCols}})
	if err != nil {
		t.Fatal(err)
	}
	// Dimension queries see the materialized data.
	if got := res.Env["n"].Data().ScalarValue(); got != float64(ds.A.Rows()) {
		t.Fatalf("nrow = %g, want %d", got, ds.A.Rows())
	}
	if got := res.Env["m"].Data().ScalarValue(); got != float64(ds.A.Cols()) {
		t.Fatalf("ncol = %g, want %d", got, ds.A.Cols())
	}
}

func TestGNMFObjectiveDecreases(t *testing.T) {
	// The multiplicative updates must reduce the reconstruction error —
	// end-to-end numerical sanity for the GNMF pipeline.
	res := compileAndRun(t, algorithms.GNMF, "red2", opt.Adaptive)
	ds := data.MustLoad("red2")
	w, h := res.Env["W"].Data(), res.Env["H"].Data()
	final := ds.A.Sub(w.Mul(h)).FrobeniusNorm()
	w0, h0 := ds.GNMFFactors(10)
	initial := ds.A.Sub(w0.Mul(h0)).FrobeniusNorm()
	if final >= initial {
		t.Fatalf("GNMF objective did not decrease: %.4f -> %.4f", initial, final)
	}
}

func TestManualStrategyAppliesNamedOptions(t *testing.T) {
	// The Fig 3 bars select specific combinations by key. Iteration count
	// matches compileFor's so results are comparable.
	prog := algorithms.MustProgram(algorithms.DFP, 5)
	ds := data.MustLoad("cri2")
	c, err := opt.Compile(prog, inputMetas(algorithms.DFP, ds), opt.Config{
		Strategy:   opt.Manual,
		ManualKeys: []string{"A'·A", "H·g·g'·H"},
		Cluster:    cluster.DefaultConfig(),
		Iterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := c.Decision.Keys()
	if len(keys) != 2 || keys[0] != "A'·A" || keys[1] != "H·g·g'·H" {
		t.Fatalf("manual selection = %v", keys)
	}
	// And the run still produces correct values.
	res, err := runPlain(c, inputsFor(t, algorithms.DFP, "cri2"))
	if err != nil {
		t.Fatal(err)
	}
	ref := compileAndRun(t, algorithms.DFP, "cri2", opt.NoElimination)
	if !res.Env["x"].Data().ApproxEqual(ref.Env["x"].Data(), 1e-6) {
		t.Fatal("manual combination changed the result")
	}
}

func TestSPORESStrategyRuns(t *testing.T) {
	res := compileAndRun(t, algorithms.DFP, "cri2", opt.SPORESLike)
	ref := compileAndRun(t, algorithms.DFP, "cri2", opt.NoElimination)
	if !res.Env["x"].Data().ApproxEqual(ref.Env["x"].Data(), 1e-6) {
		t.Fatal("SPORES strategy changed the result")
	}
	// Cost-based selection must not be catastrophically worse than the
	// baseline (the paper finds SPORES comparable to SystemDS).
	if res.Stats.TotalTime() > ref.Stats.TotalTime()*1.5 {
		t.Fatalf("SPORES %.1fs vs baseline %.1fs", res.Stats.TotalTime(), ref.Stats.TotalTime())
	}
}

func TestRuntimeDimensionMismatch(t *testing.T) {
	// Inputs whose materialized shapes disagree must fail at run time with
	// an error, not a panic escaping Run.
	prog := lang.MustParse(`
A = read("A")
x = read("x")
y = A %*% x
`)
	c, err := opt.Compile(prog, map[string]sparsity.Meta{
		"A": sparsity.MetaDims(10, 5, 1),
		"x": sparsity.MetaDims(5, 1, 1),
	}, opt.Config{Strategy: opt.NoElimination, Cluster: cluster.DefaultConfig(), Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// A kernel panic is acceptable only if it carries shape info; the
		// engine is allowed to surface it as a panic for programmer error.
		recover()
	}()
	_, err = runPlain(c, map[string]Input{
		"A": {Data: matrix.RandDense(rand10(), 10, 5)},
		"x": {Data: matrix.RandDense(rand10(), 7, 1)}, // wrong rows
	})
	if err == nil {
		t.Fatal("mismatched inputs accepted")
	}
}

func rand10() *rand.Rand { return rand.New(rand.NewSource(10)) }
