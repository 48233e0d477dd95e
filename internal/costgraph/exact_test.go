package costgraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/matrix"
	"remac/internal/search"
	"remac/internal/sparsity"
)

// referenceChainDP is the exhaustive chain DP the pruned one must reproduce:
// every split of every cell priced in ascending k, the first strictly
// cheapest kept.
func referenceChainDP(p *Planner, items []item) (*OpNode, float64, error) {
	n := len(items)
	if n == 0 {
		return nil, 0, nil
	}
	type cell struct {
		cost  float64
		split int
		meta  sparsity.Meta
		local bool
	}
	dp := make([][]cell, n)
	for i := range dp {
		dp[i] = make([]cell, n)
		dp[i][i] = cell{cost: items[i].cost, split: -1, meta: items[i].meta, local: items[i].local}
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span-1 < n; i++ {
			j := i + span - 1
			best := cell{cost: math.Inf(1), split: -1}
			for k := i; k < j; k++ {
				l, r := dp[i][k], dp[k+1][j]
				if l.meta.Cols != r.meta.Rows {
					return nil, 0, fmt.Errorf("costgraph: chain dims %d vs %d", l.meta.Cols, r.meta.Rows)
				}
				tsmm := i == k && k+1 == j && tsmmPair(items[i], items[j])
				outMeta, bd, outLocal := p.cfg.Model.MulHinted(l.meta, r.meta, l.local, r.local, tsmm)
				if c := l.cost + r.cost + bd.Total(); c < best.cost {
					best = cell{cost: c, split: k, meta: outMeta, local: outLocal}
				}
			}
			dp[i][j] = best
		}
	}
	var build func(i, j int) *OpNode
	build = func(i, j int) *OpNode {
		c := dp[i][j]
		node := &OpNode{Lo: items[i].lo, Hi: items[j].hi, Meta: c.meta, Local: c.local}
		if i == j {
			node.ReuseOf = items[i].reuse
			node.Flipped = items[i].flipped
			return node
		}
		node.L = build(i, c.split)
		node.R = build(c.split+1, j)
		return node
	}
	return build(0, n-1), dp[0][n-1].cost, nil
}

// chainGen draws contracted item chains: 1-row, 1-column, skinny (≤ 32) and
// paper-scale dims; dense and CSR metas, with count vectors from a sampled
// matrix; local and distributed items (placement sometimes overridden);
// transpose-self pairs; flipped reuse items carrying their transpose charge;
// and, with tie set, chains of identical square items, where every
// parenthesization costs the same.
type chainGen struct {
	rng   *rand.Rand
	model *cost.Model
}

var (
	genDims  = []int64{1, 1, 2, 7, 32, 33, 200, 1000, 8700, 100_000, 5_000_000, 58_400_000}
	genSpars = []float64{1, 0.9, 0.4, 0.05, 4.5e-3, 1e-5}
)

// meta draws an r×c operand; with counts, its vectors come from a sampled
// matrix of at most 24×24 re-dimensioned to r×c.
func (g *chainGen) meta(r, c int64) sparsity.Meta {
	s := genSpars[g.rng.Intn(len(genSpars))]
	if g.rng.Intn(2) == 0 {
		return sparsity.MetaDims(r, c, s)
	}
	sr, sc := int(min(r, 24)), int(min(c, 24))
	var m *matrix.Matrix
	if s > matrix.DenseThreshold {
		m = matrix.RandDense(g.rng, sr, sc)
	} else {
		m = matrix.RandSparse(g.rng, sr, sc, max(s, 0.1))
	}
	out := sparsity.Virtualize(sparsity.MetaOf(m), r, c)
	out.Sparsity = s
	return out
}

func (g *chainGen) item(lo int, m sparsity.Meta) item {
	it := item{lo: lo, hi: lo, meta: m, local: g.model.FitsLocal(m)}
	if g.rng.Intn(6) == 0 {
		it.local = !it.local
	}
	return it
}

func (g *chainGen) chain(n int, tie bool) []item {
	var items []item
	if tie {
		d := []int64{1, 8, 32, 1000, 8700}[g.rng.Intn(5)]
		m := g.meta(d, d)
		for i := 0; i < n; i++ {
			items = append(items, item{lo: i, hi: i, meta: m, local: g.model.FitsLocal(m)})
		}
		return items
	}
	cur := genDims[g.rng.Intn(len(genDims))]
	for len(items) < n {
		lo := len(items)
		switch roll := g.rng.Intn(8); {
		case roll == 0 && n-len(items) >= 2:
			// A transpose-self pair over one symbol: t(X)·X or X·t(X).
			x := g.meta(genDims[g.rng.Intn(len(genDims))], cur)
			xt := g.model.Estimator().Transpose(x)
			sym := fmt.Sprintf("X%d", lo)
			first, second := g.item(lo, xt), g.item(lo+1, x)
			first.sym, first.t, second.sym = sym, true, sym
			if g.rng.Intn(2) == 0 {
				x = g.meta(cur, genDims[g.rng.Intn(len(genDims))])
				first, second = g.item(lo, x), g.item(lo+1, g.model.Estimator().Transpose(x))
				first.sym, second.sym, second.t = sym, sym, true
			}
			items = append(items, first, second)
			cur = second.meta.Cols
		case roll == 1:
			// A reused span, possibly read transposed from the cache.
			next := genDims[g.rng.Intn(len(genDims))]
			it := g.item(lo, g.meta(cur, next))
			it.reuse = &search.Option{ID: lo, Key: fmt.Sprintf("opt%d", lo)}
			if g.rng.Intn(2) == 0 {
				it.flipped = true
				_, bd, _ := g.model.Transpose(it.meta, it.local)
				it.cost = bd.Total()
			}
			items = append(items, it)
			cur = next
		default:
			next := genDims[g.rng.Intn(len(genDims))]
			it := g.item(lo, g.meta(cur, next))
			if g.rng.Intn(3) == 0 {
				it.sym = fmt.Sprintf("Y%d", lo)
			}
			items = append(items, it)
			cur = next
		}
	}
	for i := range items {
		items[i].lo, items[i].hi = i, i
	}
	return items
}

// sameTree reports the first difference between two plan trees: shape,
// spans, reuse, placement or any Meta field (vectors by pointer — both
// trees come from one memo, which interns equal contents).
func sameTree(a, b *OpNode, path string) error {
	switch {
	case (a == nil) != (b == nil):
		return fmt.Errorf("%s: one tree ends", path)
	case a == nil:
		return nil
	case a.Lo != b.Lo || a.Hi != b.Hi || a.ReuseOf != b.ReuseOf || a.Flipped != b.Flipped || a.Local != b.Local:
		return fmt.Errorf("%s: node [%d,%d] local=%t vs [%d,%d] local=%t", path, a.Lo, a.Hi, a.Local, b.Lo, b.Hi, b.Local)
	case a.Meta != b.Meta:
		return fmt.Errorf("%s: meta %+v vs %+v", path, a.Meta, b.Meta)
	}
	if err := sameTree(a.L, b.L, path+"L"); err != nil {
		return err
	}
	return sameTree(a.R, b.R, path+"R")
}

// checkChainDPExact runs the pruned and the reference DP over one generated
// chain and requires the same cost bits, tree and node metas.
func checkChainDPExact(t *testing.T, seed int64, n int, mode uint8) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	if mode&2 != 0 {
		cfg = cluster.SingleNodeConfig()
	}
	var est sparsity.Estimator = sparsity.Metadata{}
	if mode&1 != 0 {
		est = sparsity.MNC{}
	}
	model := cost.NewModel(cfg, sparsity.NewMemo(est))
	g := &chainGen{rng: rand.New(rand.NewSource(seed)), model: model}
	items := g.chain(n, mode&4 != 0)
	p := &Planner{cfg: Config{Model: model, Iterations: 1}}
	wantRoot, wantCost, wantErr := referenceChainDP(p, items)
	gotRoot, gotCost, gotErr := p.chainDP(items)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("seed %d n %d mode %d: error %v, reference %v", seed, n, mode, gotErr, wantErr)
	}
	if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
		t.Fatalf("seed %d n %d mode %d: cost %x, reference %x", seed, n, mode, math.Float64bits(gotCost), math.Float64bits(wantCost))
	}
	if err := sameTree(gotRoot, wantRoot, "root"); err != nil {
		t.Fatalf("seed %d n %d mode %d: %v", seed, n, mode, err)
	}
}

// TestChainDPExact: the pruned DP decides exactly what the exhaustive one
// does, under MNC and metadata estimates, on both cluster profiles, on
// generated chains and on chains of equal-cost splits.
func TestChainDPExact(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		for mode := uint8(0); mode < 8; mode++ {
			checkChainDPExact(t, seed, 1+int(seed)%12, mode)
		}
	}
}

// TestChainDPTieKeepsFirstSplit: on a chain where every split ties, the DP
// still splits each cell at its first k, as the exhaustive scan does.
func TestChainDPTieKeepsFirstSplit(t *testing.T) {
	model := cost.NewModel(cluster.DefaultConfig(), sparsity.Metadata{})
	m := sparsity.MetaDims(1000, 1000, 1)
	items := make([]item, 5)
	for i := range items {
		items[i] = item{lo: i, hi: i, meta: m, local: true}
	}
	root, _, err := (&Planner{cfg: Config{Model: model, Iterations: 1}}).chainDP(items)
	if err != nil {
		t.Fatal(err)
	}
	root.Walk(func(n *OpNode) {
		if n.L != nil && n.L.Hi != n.Lo {
			t.Errorf("cell [%d,%d] splits after %d, want the first split %d", n.Lo, n.Hi, n.L.Hi, n.Lo)
		}
	})
}

// FuzzChainDPExact is TestChainDPExact over fuzzed seeds, lengths and modes
// (bit 0: MNC, bit 1: single node, bit 2: tie chain); the seed corpus is
// testdata/fuzz/FuzzChainDPExact.
func FuzzChainDPExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, mode uint8) {
		checkChainDPExact(t, seed, 1+int(n)%14, mode&7)
	})
}
