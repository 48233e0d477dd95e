package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/opt"
	"remac/internal/sparsity"
)

// TestCompileCanceled: cancellation during the search phase surfaces as
// ErrCanceled from CompileCtx.
func TestCompileCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := algorithms.MustProgram(algorithms.DFP, 5)
	ds := data.MustLoad("cri1")
	_, err := opt.CompileCtx(ctx, prog, inputMetas(algorithms.DFP, ds), opt.Config{
		Strategy:   opt.Adaptive,
		Estimator:  sparsity.MNC{},
		Cluster:    cluster.DefaultConfig(),
		Iterations: 5,
	})
	if !errors.Is(err, opt.ErrCanceled) {
		t.Fatalf("compile under canceled context: err = %v, want ErrCanceled", err)
	}
	// The engine-level alias identifies the same sentinel.
	if !errors.Is(err, ErrCanceled) {
		t.Error("engine.ErrCanceled does not match opt.ErrCanceled")
	}
}

// TestRunCanceled: a canceled context stops execution before any kernel
// runs and surfaces as ErrCanceled.
func TestRunCanceled(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri1", opt.Adaptive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWithOptions(ctx, c, inputsFor(t, algorithms.GD, "cri1"), nil, RunOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("run under canceled context: err = %v, want ErrCanceled", err)
	}
}

// TestRunDeadline: a deadline expiring mid-run aborts between plan nodes;
// the error distinguishes cancellation from genuine failures.
func TestRunDeadline(t *testing.T) {
	c := compileFor(t, algorithms.DFP, "cri2", opt.Adaptive)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := RunWithOptions(ctx, c, inputsFor(t, algorithms.DFP, "cri2"), nil, RunOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("run past deadline: err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The cause is carried as message text only; the sentinel is the
		// contract. This branch just documents that either is acceptable.
		t.Log("deadline cause preserved in chain")
	}
}

// TestNilContextRunsToCompletion: a background context must leave a full run
// unaffected by the ctx plumbing.
func TestNilContextRunsToCompletion(t *testing.T) {
	c := compileFor(t, algorithms.GD, "cri1", opt.Adaptive)
	res, err := RunWithOptions(context.Background(), c, inputsFor(t, algorithms.GD, "cri1"), nil, RunOptions{})
	if err != nil {
		t.Fatalf("background-context run: %v", err)
	}
	if res.Iterations == 0 {
		t.Error("run completed with zero iterations")
	}
}
