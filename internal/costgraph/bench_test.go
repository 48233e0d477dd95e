package costgraph

import (
	"testing"

	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/data"
	"remac/internal/search"
	"remac/internal/sparsity"
)

// cri2Resolver binds dfpSrc's symbols to the cri2 dataset's metas at paper
// scale, count vectors included — what the planner sees when the optimizer
// compiles DFP over cri2 with the MNC estimator.
func cri2Resolver() res {
	ds := data.MustLoad("cri2")
	a := sparsity.Virtualize(sparsity.MetaOf(ds.A), ds.VRows, ds.VCols)
	b := sparsity.Virtualize(sparsity.MetaOf(ds.Label()), ds.VRows, 1)
	return res{
		"A": a,
		"b": b,
		"H": sparsity.Virtualize(sparsity.MetaOf(ds.InitialH()), ds.VCols, ds.VCols),
		"x": sparsity.Virtualize(sparsity.MetaOf(ds.InitialX()), ds.VCols, 1),
		"g": sparsity.MNC{}.Mul(sparsity.MNC{}.Transpose(a), b),
		"i": sparsity.MetaDims(1, 1, 1),
	}
}

// mncPlanner builds a planner the way opt.CompileCtx does: one memoizing
// view of the estimator behind the cost model.
func mncPlanner(b *testing.B, sr *search.Result) *Planner {
	b.Helper()
	p, err := NewPlanner(Config{
		Model:      cost.NewModel(cluster.DefaultConfig(), sparsity.NewMemo(sparsity.MNC{})),
		Iterations: 3,
	}, sr)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkChainDP orders the longest DFP block (no option selected) over
// cri2 metas: cold, a new planner — and an empty estimate table — per
// iteration; warm, the same planner again, every product a table hit, which
// leaves the DP's own probing and pricing.
func BenchmarkChainDP(b *testing.B) {
	sr := searched(b, dfpSrc, cri2Resolver())
	var longest *chain.Block
	for _, blk := range sr.Coords.Blocks {
		if longest == nil || blk.Len() > longest.Len() {
			longest = blk
		}
	}
	sel := make([]bool, len(sr.Options))
	run := func(b *testing.B, p *Planner) {
		items, err := p.contract(longest, sel)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := p.chainDP(items); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, mncPlanner(b, sr))
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := mncPlanner(b, sr)
		run(b, p)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, p)
		}
	})
}

// BenchmarkProbe runs the whole adaptive probing of DFP over cri2 metas, a
// new planner per iteration as in a compilation.
func BenchmarkProbe(b *testing.B) {
	sr := searched(b, dfpSrc, cri2Resolver())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mncPlanner(b, sr).Probe(); err != nil {
			b.Fatal(err)
		}
	}
}
