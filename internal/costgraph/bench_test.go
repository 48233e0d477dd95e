package costgraph

import (
	"context"
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

// countingMNC is the MNC estimator counting the products that reach it.
type countingMNC struct {
	sparsity.MNC
	muls int
}

func (c *countingMNC) Mul(a, b sparsity.Meta) sparsity.Meta {
	c.muls++
	return c.MNC.Mul(a, b)
}

// reportProducts reports the estimator products one op evaluated.
func (c *countingMNC) reportProducts(b *testing.B) {
	b.ReportMetric(float64(c.muls)/float64(b.N), "products/op")
}

// mncPlanner builds a planner the way opt.CompileCtx does: one memoizing
// view of the estimator behind the cost model.
func mncPlanner(b *testing.B, sr *search.Result, est *countingMNC) *Planner {
	b.Helper()
	p, err := NewPlanner(context.Background(), Config{
		Model:      cost.NewModel(cluster.DefaultConfig(), sparsity.NewMemo(est)),
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
// leaves the DP's own probing and pricing. Both report the estimator
// products per op.
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
		est := &countingMNC{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, mncPlanner(b, sr, est))
		}
		est.reportProducts(b)
	})
	b.Run("warm", func(b *testing.B) {
		est := &countingMNC{}
		p := mncPlanner(b, sr, est)
		run(b, p)
		est.muls = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, p)
		}
		est.reportProducts(b)
	})
}

// BenchmarkProbe runs the whole adaptive probing of DFP over cri2 metas, a
// new planner per iteration as in a compilation.
func BenchmarkProbe(b *testing.B) {
	sr := searched(b, dfpSrc, cri2Resolver())
	est := &countingMNC{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mncPlanner(b, sr, est).Probe(); err != nil {
			b.Fatal(err)
		}
	}
	est.reportProducts(b)
}
