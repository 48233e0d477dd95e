package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/fault"
	"remac/internal/lang"
	"remac/internal/opt"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

// stressPlan returns a fresh plan with rates high enough (relative to the
// 10²–10³ simulated-second runs the engine tests execute) that every fault
// kind fires. Injectors are stateful, so each run needs its own plan.
func stressPlan(seed int64) *fault.Plan {
	return fault.NewPlan(fault.Config{
		Seed:                  seed,
		WorkerFailuresPerHour: 120,
		TransmitErrorsPerHour: 240,
		StragglersPerHour:     120,
		Workers:               cluster.DefaultConfig().Workers(),
	})
}

func runFaulted(t *testing.T, alg algorithms.Name, dsName string, s opt.Strategy, opts RunOptions) *Result {
	t.Helper()
	c := compileFor(t, alg, dsName, s)
	rec := trace.New()
	res, err := RunWithOptions(context.Background(), c, inputsFor(t, alg, dsName), rec, opts)
	if err != nil {
		t.Fatalf("%v/%s/%v faulted run: %v", alg, dsName, s, err)
	}
	return res
}

// TestZeroOptionsMatchPlainRun is the zero-overhead regression guard: a
// zero RunOptions (nil plan, no checkpoint) must produce exactly the stats
// of a plain Run.
func TestZeroOptionsMatchPlainRun(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri1", opt.Conservative)
	plain, err := runPlain(c, inputsFor(t, algorithms.GD, "cri1"))
	if err != nil {
		t.Fatal(err)
	}
	withOpts, err := RunWithOptions(context.Background(), compileFor(t, algorithms.GD, "cri1", opt.Conservative),
		inputsFor(t, algorithms.GD, "cri1"), nil, RunOptions{Faults: fault.NewPlan(fault.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Stats, withOpts.Stats) {
		t.Fatalf("zero options changed stats:\n%+v\n%+v", plain.Stats, withOpts.Stats)
	}
	if plain.Stats.Retries != 0 || plain.Stats.RecoverySec != 0 || plain.Stats.FailedWorkers != 0 {
		t.Fatalf("fault fields nonzero on perfect cluster: %+v", plain.Stats)
	}
}

// TestFaultedRunDeterministic: the same fault seed must reproduce
// byte-identical stats and the same span sequence (wall-clock aside).
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() *Result {
		return runFaulted(t, algorithms.DFP, "cri2", opt.Conservative, RunOptions{Faults: stressPlan(42)})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Stats.FailedWorkers == 0 || a.Stats.Retries == 0 || a.Stats.RecoverySec == 0 {
		t.Fatalf("stress rates must fire every fault kind: %+v", a.Stats)
	}
	sa, sb := a.Trace.Spans(), b.Trace.Spans()
	if len(sa) != len(sb) {
		t.Fatalf("span counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		x.WallNS, y.WallNS = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("span %d differs:\n%+v\n%+v", i, x, y)
		}
	}
}

// TestFaultsNeverChangeResults: injected faults only affect accounting;
// result matrices must be numerically identical to the fault-free run for
// every algorithm the paper evaluates.
func TestFaultsNeverChangeResults(t *testing.T) {
	cases := []struct {
		alg    algorithms.Name
		ds     string
		target string
	}{
		{algorithms.GD, "cri2", "x"},
		{algorithms.DFP, "cri2", "x"},
		{algorithms.GNMF, "cri2", "W"},
	}
	for _, tc := range cases {
		ref := compileAndRun(t, tc.alg, tc.ds, opt.Conservative)
		got := runFaulted(t, tc.alg, tc.ds, opt.Conservative,
			RunOptions{Faults: stressPlan(7), Recovery: RecoveryPolicy{Kind: RecoverCheckpoint}})
		if got.Stats.FailedWorkers == 0 {
			t.Fatalf("%v: no failures fired; test is vacuous", tc.alg)
		}
		if !got.Env[tc.target].Data().ApproxEqual(ref.Env[tc.target].Data(), 0) {
			t.Errorf("%v: faults changed the result", tc.alg)
		}
	}
}

// TestCheckpointReducesRecompute: persisting LSE intermediates converts
// their post-failure recovery from lineage recompute (FLOP) into DFS reads,
// at the price of DFS write bytes. The default driver heap would hold the
// cri2 LSE values locally (where failures cannot touch them), so this test
// shrinks it to force them onto the workers.
func TestCheckpointReducesRecompute(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.DriverMemory = 512 << 20
	iters := 5
	prog := algorithms.MustProgram(algorithms.DFP, iters)
	ds := data.MustLoad("cri2")
	// Aggressive hoists the AᵀA LSE, whose 8700² result is distributed
	// under the shrunken driver heap — the value checkpointing exists for.
	compiled, err := opt.Compile(prog, inputMetas(algorithms.DFP, ds), opt.Config{
		Strategy:   opt.Aggressive,
		Estimator:  sparsity.MNC{},
		Cluster:    cfg,
		Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(checkpoint bool) *Result {
		var rp RecoveryPolicy
		if checkpoint {
			rp.Kind = RecoverCheckpoint
		}
		res, err := RunWithOptions(context.Background(), compiled, inputsFor(t, algorithms.DFP, "cri2"), trace.New(), RunOptions{
			Faults:   stressPlan(11),
			Recovery: rp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	ckpt := run(true)
	if plain.Stats.FailedWorkers == 0 || ckpt.Stats.FailedWorkers == 0 {
		t.Fatalf("failures did not fire in both runs: %d vs %d",
			plain.Stats.FailedWorkers, ckpt.Stats.FailedWorkers)
	}
	if plain.Stats.RecomputeFLOP == 0 {
		t.Fatal("lineage recovery recomputed nothing; test is vacuous")
	}
	writes := 0
	for _, sp := range ckpt.Trace.Spans() {
		if sp.Kind == "checkpoint" {
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("checkpoint policy wrote nothing to DFS")
	}
	if ckpt.Stats.RecomputeFLOP >= plain.Stats.RecomputeFLOP {
		t.Errorf("checkpointing did not reduce recompute FLOP: %g vs %g",
			ckpt.Stats.RecomputeFLOP, plain.Stats.RecomputeFLOP)
	}
}

// TestErrMaxIterations: a loop that never converges returns the sentinel,
// checkable with errors.Is, carrying the cap via MaxIterationsError.
func TestErrMaxIterations(t *testing.T) {
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
	_, err = RunWithOptions(context.Background(), c, nil, nil, RunOptions{MaxIter: 7})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("errors.Is(err, ErrMaxIterations) false for %v", err)
	}
	var me *MaxIterationsError
	if !errors.As(err, &me) || me.Iterations != 7 {
		t.Fatalf("error does not carry the cap: %v", err)
	}

	// The default path (plain Run, full cap) returns the same sentinel.
	_, err = runPlain(c, nil)
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("Run: errors.Is false for %v", err)
	}
	if !errors.As(err, &me) || me.Iterations != MaxIterations {
		t.Fatalf("Run error cap = %v", err)
	}
}
