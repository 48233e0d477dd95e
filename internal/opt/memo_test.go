package opt

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/costgraph"
	"remac/internal/data"
	"remac/internal/sparsity"
)

// catalogueShapes are the eight dataset shapes the compile benchmark mixes.
var catalogueShapes = []string{"cri1", "cri2", "cri3", "red1", "red2", "red3", "zipf-0.7", "zipf-2.1"}

func inputMetas(t testing.TB, alg algorithms.Name, dsName string) map[string]sparsity.Meta {
	t.Helper()
	ins, err := data.MustLoad(dsName).Inputs(alg)
	if err != nil {
		t.Fatal(err)
	}
	metas := map[string]sparsity.Meta{}
	for _, in := range ins {
		metas[in.Name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
	}
	return metas
}

func describeMeta(m sparsity.Meta) string {
	digest := func(c *sparsity.Counts) string {
		if c == nil {
			return "-"
		}
		h := uint64(14695981039346656037)
		for i := 0; i < c.Len(); i++ {
			h = (h ^ uint64(c.At(i))) * 1099511628211
		}
		return fmt.Sprintf("%d:%x", c.Len(), h)
	}
	return fmt.Sprintf("%dx%d s=%x r=%s c=%s", m.Rows, m.Cols, math.Float64bits(m.Sparsity), digest(m.RowCounts), digest(m.ColCounts))
}

func describeTree(b *strings.Builder, n *costgraph.OpNode, depth int) {
	if n == nil {
		return
	}
	reuse := ""
	if n.ReuseOf != nil {
		reuse = fmt.Sprintf(" reuse=%d:%s flipped=%t", n.ReuseOf.ID, n.ReuseOf.Key, n.Flipped)
	}
	fmt.Fprintf(b, "%*s[%d,%d] local=%t %s cost=%x/%x %s%s\n", depth*2, "", n.Lo, n.Hi, n.Local, n.Cost.Method,
		math.Float64bits(n.Cost.ComputeSec), math.Float64bits(n.Cost.TransmitSec), describeMeta(n.Meta), reuse)
	describeTree(b, n.L, depth+1)
	describeTree(b, n.R, depth+1)
}

// describe renders everything of a compilation the engine, the serving
// caches or a report can observe, floats by their bits.
func describe(c *Compiled) string {
	var b strings.Builder
	d := c.Decision
	fmt.Fprintf(&b, "keys=%v total=%x options=%d\n", d.Keys(), math.Float64bits(d.TotalCost), len(c.Search.Options))
	for _, bp := range d.BlockPlans {
		fmt.Fprintf(&b, "block %d cost=%x\n", bp.Block.ID, math.Float64bits(bp.Cost))
		describeTree(&b, bp.Root, 1)
	}
	for _, pp := range d.Producers {
		fmt.Fprintf(&b, "producer %s sig=%s cost=%x charged=%x\n", pp.Option.Key, costgraph.ProducerSig(pp.Root),
			math.Float64bits(pp.Cost), math.Float64bits(pp.Charged))
		describeTree(&b, pp.Root, 1)
	}
	for _, name := range []string{"g", "d", "H", "x", "W", "s", "y"} {
		if m, ok := c.Resolver.MetaFor(name); ok {
			fmt.Fprintf(&b, "meta %s %s\n", name, describeMeta(m))
		}
	}
	return b.String()
}

// TestPlannerInvariantUnderMemo: the memoizing estimator is an Estimator
// like any other, so a compilation over it and one over the bare estimator
// must agree on every selected key, the modelled cost to the bit, every
// block tree and every producer signature.
func TestPlannerInvariantUnderMemo(t *testing.T) {
	strategies := []struct {
		name string
		cfg  Config
	}{
		{"adaptive-DP", Config{Strategy: Adaptive}},
		{"adaptive-EnumDFS", Config{Strategy: Adaptive, Combiner: EnumDFS, EnumBudget: costgraph.EnumBudget{MaxCombos: 48}}},
		{"conservative", Config{Strategy: Conservative}},
		{"aggressive", Config{Strategy: Aggressive}},
		{"automatic", Config{Strategy: Automatic}},
	}
	for _, alg := range algorithms.All {
		prog := algorithms.MustProgram(alg, 3)
		for _, shape := range catalogueShapes {
			metas := inputMetas(t, alg, shape)
			for _, est := range []sparsity.Estimator{sparsity.Metadata{}, sparsity.MNC{}} {
				for _, s := range strategies {
					cfg := s.cfg
					cfg.Estimator, cfg.Cluster, cfg.Iterations = est, cluster.DefaultConfig(), 3
					bare, err := compile(context.Background(), prog, metas, cfg, est)
					if err != nil {
						t.Fatal(err)
					}
					memo, err := compile(context.Background(), prog, metas, cfg, sparsity.NewMemo(est))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := describe(memo), describe(bare); got != want {
						t.Fatalf("%s/%s %s %s: memoized compilation differs\n--- memo ---\n%s--- bare ---\n%s",
							alg, shape, est.Name(), s.name, got, want)
					}
				}
			}
		}
	}
}

// countingEstimator counts the products that reach the estimator under the
// memo.
type countingEstimator struct {
	sparsity.Estimator
	muls int
}

func (c *countingEstimator) Mul(a, b sparsity.Meta) sparsity.Meta {
	c.muls++
	return c.Estimator.Mul(a, b)
}

// TestCompileEstimateBudget pins the number of products one adaptive MNC
// compilation evaluates — a count, not a time, so it holds on any machine.
// The memo evaluates each distinct product once, and the chain DP asks only
// for the products of splits that can still win: DFP on cri2 evaluates 39
// and BFGS 18 (68 and 19 when every split was priced).
func TestCompileEstimateBudget(t *testing.T) {
	for _, tc := range []struct {
		alg    algorithms.Name
		budget int
	}{{algorithms.DFP, 45}, {algorithms.BFGS, 20}} {
		counter := &countingEstimator{Estimator: sparsity.MNC{}}
		_, err := Compile(algorithms.MustProgram(tc.alg, 3), inputMetas(t, tc.alg, "cri2"),
			Config{Strategy: Adaptive, Estimator: counter, Cluster: cluster.DefaultConfig(), Iterations: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s/cri2: %d products evaluated", tc.alg, counter.muls)
		if counter.muls > tc.budget {
			t.Errorf("%s/cri2: %d products evaluated, budget %d", tc.alg, counter.muls, tc.budget)
		}
	}
}

// reaches reports whether a value of type target is reachable from v through
// pointers, interfaces, slices, arrays, maps and struct fields (unexported
// ones included).
func reaches(v reflect.Value, target reflect.Type, seen map[unsafe.Pointer]bool) bool {
	if !v.IsValid() {
		return false
	}
	if v.Type() == target {
		return true
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.UnsafePointer()] {
			return false
		}
		seen[v.UnsafePointer()] = true
		return reaches(v.Elem(), target, seen)
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), target, seen)
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if reaches(v.Index(i), target, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), target, seen) || reaches(it.Value(), target, seen) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reaches(v.Field(i), target, seen) {
				return true
			}
		}
	}
	return false
}

// TestCompiledHoldsNoMemo: the estimate table dies with the compilation. A
// compiled plan is cached and run for as long as a server lives, so nothing
// reachable from it may be the memo (which would pin every vector of every
// product priced) — and concurrent compilations over shared input metas,
// whose vectors they summarise lazily, must not race with each other or
// with a reader of a finished plan.
func TestCompiledHoldsNoMemo(t *testing.T) {
	prog := algorithms.MustProgram(algorithms.DFP, 3)
	metas := inputMetas(t, algorithms.DFP, "cri2")
	cfg := Config{Strategy: Adaptive, Estimator: sparsity.MNC{}, Cluster: cluster.DefaultConfig(), Iterations: 3}
	cached, err := Compile(prog, metas, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := describe(cached)

	var wg sync.WaitGroup
	plans := make([]*Compiled, 8)
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Compile(prog, metas, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = c
		}(i)
	}
	// Meanwhile the cached plan is read the way a run reads it: re-pricing
	// its trees' operators from the metas they carry.
	model := cost.NewModel(cfg.Cluster, cfg.Estimator)
	for _, bp := range cached.Decision.BlockPlans {
		bp.Root.Walk(func(n *costgraph.OpNode) {
			if n.L != nil && n.R != nil {
				model.Mul(n.L.Meta, n.R.Meta, n.L.Local, n.R.Local)
			}
		})
	}
	wg.Wait()

	memoType := reflect.TypeOf(sparsity.Memo{})
	holder := struct{ est sparsity.Estimator }{sparsity.NewMemo(cfg.Estimator)}
	if !reaches(reflect.ValueOf(&holder), memoType, map[unsafe.Pointer]bool{}) {
		t.Fatal("reachability walk misses a memo behind an unexported interface field")
	}
	for i, c := range append(plans, cached) {
		if c == nil {
			continue
		}
		if got := describe(c); got != want {
			t.Errorf("compilation %d differs from the first", i)
		}
		if reaches(reflect.ValueOf(c), memoType, map[unsafe.Pointer]bool{}) {
			t.Errorf("compilation %d: a sparsity.Memo is reachable from Compiled", i)
		}
		if _, isMemo := c.Config.Estimator.(*sparsity.Memo); isMemo {
			t.Errorf("compilation %d: Config.Estimator is the memo, not the caller's estimator", i)
		}
	}
}
