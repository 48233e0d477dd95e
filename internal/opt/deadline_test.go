package opt

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/lang"
)

// chainsScript is a loop whose body multiplies factors copies of A or t(A)
// into x in each of blocks statements: x = t(A) %*% A %*% … %*% A %*% x,
// blocks blocks of factors+1 atoms each (factors even).
func chainsScript(blocks, factors int) string {
	var b strings.Builder
	b.WriteString("A = read(\"A\")\nx = read(\"x0\")\ni = 0\nwhile (i < 3) {\n")
	for k := 0; k < blocks; k++ {
		b.WriteString("    x = ")
		for f := 0; f < factors/2; f++ {
			b.WriteString("t(A) %*% A %*% ")
		}
		b.WriteString("x\n")
	}
	b.WriteString("    i = i + 1\n}\n")
	return b.String()
}

// TestCompileStopsAtTheDeadline: 16 blocks of 63 atoms, each under
// chain.MaxBlockAtoms and 1 008 in all, under chain.MaxScriptAtoms, take
// 0.11–0.19 s (NoElimination) and 0.4 s (Adaptive) to compile on a 2-core
// x86 host, almost all of it in the window sweep, the chain DP and the probe.
// Each checks the context often enough that a 10 ms deadline ends the
// compilation within a second, with ErrCanceled.
func TestCompileStopsAtTheDeadline(t *testing.T) {
	prog := lang.MustParse(chainsScript(16, 62))
	metas := inputMetas(t, algorithms.DFP, "cri1")
	for _, strategy := range []Strategy{Adaptive, NoElimination} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		_, err := CompileCtx(ctx, prog, metas, Config{Strategy: strategy, Cluster: cluster.DefaultConfig(), Iterations: 3})
		wall := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v after %v, want ErrCanceled", strategy, err, wall)
		}
		if wall > time.Second {
			t.Errorf("%v: a 10 ms deadline stopped the compilation after %v", strategy, wall)
		}
		t.Logf("%v: canceled after %v", strategy, wall)
	}
}
