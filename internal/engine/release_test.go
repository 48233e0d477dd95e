package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/distmat"
	"remac/internal/lang"
	"remac/internal/matrix"
)

// consumed reports whether v was emptied, as a retired value is: its use panics.
func consumed(v *distmat.DistMatrix) (gone bool) {
	defer func() { gone = recover() != nil }()
	v.Dims()
	return false
}

// hoistedOuterScript hoists a rank-one product of a value the run made out of
// the loop (an LSE option under the strategies that apply one): a value only
// the loop-constant slot holds, read by no operator that needs its cells, so
// when the loop ends it is still an expression, and it holds u. The end of
// the run drops it unevaluated, and it lets go of u.
const hoistedOuterScript = `
A = read("A")
b = read("b")
H = read("H0")
x = read("x0")
u = x * 2
i = 0
while (i < 4) {
    H = H * 0.5 + u %*% t(u)
    x = x - 0.0001 * (H %*% (t(A) %*% (A %*% x - b)))
    i = i + 1
}
`

// TestReleaseLeavesSharedValuesAlone: Release retires what the run made and
// only the result's names hold, and nothing else. Whatever anybody else can
// reach — the inputs, what the run published to the intermediate cache,
// what it took from the cache, and a value an
// expression still held reads — is still there bit for bit after every buffer
// Release gave up has been filled with NaN. The hoisted product dropped
// unevaluated at the run's end holds u no more: Release retires u.
func TestReleaseLeavesSharedValuesAlone(t *testing.T) {
	ds := smallDataset("cri1", 200, 48)
	metas, ins := inputMetas(algorithms.DFP, ds), inputsOn(algorithms.DFP, ds)
	programs := map[string]*lang.Program{
		"DFP":         algorithms.MustProgram(algorithms.DFP, 4),
		"BFGS":        algorithms.MustProgram(algorithms.BFGS, 4),
		"bound twice": lang.MustParse(twiceBoundScript),
		"alias":       lang.MustParse(aliasScript),
		"hoisted":     lang.MustParse(hoistedOuterScript),
	}
	retired, hits, handedOut := 0, 0, 0
	for name, prog := range programs {
		for _, strategy := range ownershipStrategies {
			c := compileProgram(t, name, prog, metas, strategy, 4)
			serving := newFakeSource()
			for arm, rec := range []*fakeSource{{}, serving, serving, {}} {
				ctx := fmt.Sprintf("%s/%v/arm %d", name, strategy, arm)
				opts := RunOptions{LSE: rec}
				if arm == 3 {
					opts = RunOptions{} // nothing handed out: a hoisted value may stay an expression
				}
				e, err := newExecutor(context.Background(), c, ins, nil, opts)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				res, err := e.run()
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}

				// What somebody other than the result's names can reach.
				others := map[string]*matrix.Matrix{}
				for i, m := range rec.given {
					others[fmt.Sprintf("handed out #%d", i)] = m
				}
				for key, iv := range rec.stored {
					others["cached "+key] = iv.Data
				}
				for sym, in := range ins {
					others["input "+sym] = in.Data
				}
				held, _, leaves := e.retained()
				leafCells := map[string][]float64{}
				for at, buf := range leaves {
					leafCells[at] = append([]float64(nil), buf...)
				}
				for at := range held {
					// The end of the run cleared the reuse slots: what is
					// held is the names', and the fused transposes their
					// values keep go with them.
					if !strings.HasPrefix(at, "env[") || strings.HasPrefix(at, "env[kept slot ") {
						t.Fatalf("%s: %s is full after the run", ctx, at)
					}
				}
				copies := map[string]*matrix.Matrix{}
				for at, m := range others {
					copies[at] = m.Clone()
				}
				buffers := map[*distmat.DistMatrix][]float64{}
				for _, v := range res.Env {
					buffers[v] = v.Data().Buffer()
				}
				handedOut += len(rec.given)
				hits += rec.hits

				res.Release()

				gone := map[*float64]bool{}
				for v, buf := range buffers {
					if !consumed(v) {
						continue
					}
					if len(buf) == 0 {
						t.Fatalf("%s: a value with no dense buffer was retired", ctx)
					}
					retired++
					gone[&buf[0]] = true
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
				if len(e.ctx.Idle()) != 0 {
					t.Fatalf("%s: Release left %d buffers on the free list", ctx, len(e.ctx.Idle()))
				}
				for at, m := range others {
					if buf := m.Buffer(); len(buf) > 0 && gone[&buf[0]] {
						t.Fatalf("%s: %s was retired by Release", ctx, at)
					}
					if !sameBits(m, copies[at]) {
						t.Fatalf("%s: %s changed under Release", ctx, at)
					}
				}
				for at, buf := range leaves {
					if len(buf) > 0 && gone[&buf[0]] {
						t.Fatalf("%s: %s, read by an expression still to be evaluated, was retired by Release", ctx, at)
					}
					for i, v := range buf {
						if math.Float64bits(v) != math.Float64bits(leafCells[at][i]) {
							t.Fatalf("%s: %s changed under Release", ctx, at)
						}
					}
				}
				for sym, in := range ins {
					if v, ok := res.Env[sym]; ok && (consumed(v) || v.Data() != in.Data) {
						t.Fatalf("%s: the result no longer names input %s", ctx, sym)
					}
				}
				if name == "hoisted" && !consumed(res.Env["u"]) {
					t.Fatalf("%s: Release did not retire u", ctx)
				}
			}
		}
	}
	if retired == 0 || hits == 0 || handedOut == 0 {
		t.Fatalf("%d values retired, %d cache hits, %d values handed out: the test was to see each", retired, hits, handedOut)
	}
}
