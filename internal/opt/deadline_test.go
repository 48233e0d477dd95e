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

// longChainScript is a loop whose body multiplies factors copies of A or
// t(A) into x: t(A) %*% A %*% … %*% t(A) %*% A %*% x, one block of
// factors+1 atoms (factors even).
func longChainScript(factors int) string {
	var b strings.Builder
	b.WriteString("A = read(\"A\")\nx = read(\"x0\")\ni = 0\nwhile (i < 3) {\n    x = ")
	for f := 0; f < factors/2; f++ {
		b.WriteString("t(A) %*% A %*% ")
	}
	b.WriteString("x\n    i = i + 1\n}\n")
	return b.String()
}

// TestCompileStopsAtTheDeadline: compiling a 1 000-factor chain takes about
// two minutes, almost all of it in the block's window sweep, the chain DP and
// the probe. Each checks the context often enough that a 100 ms deadline
// ends the compilation within a second, with ErrCanceled.
func TestCompileStopsAtTheDeadline(t *testing.T) {
	prog := lang.MustParse(longChainScript(1000))
	metas := inputMetas(t, algorithms.DFP, "cri1")
	for _, strategy := range []Strategy{Adaptive, NoElimination} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		start := time.Now()
		_, err := CompileCtx(ctx, prog, metas, Config{Strategy: strategy, Cluster: cluster.DefaultConfig(), Iterations: 3})
		wall := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v after %v, want ErrCanceled", strategy, err, wall)
		}
		if wall > time.Second {
			t.Errorf("%v: a 100 ms deadline stopped the compilation after %v", strategy, wall)
		}
		t.Logf("%v: canceled after %v", strategy, wall)
	}
}
