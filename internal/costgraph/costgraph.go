// Package costgraph implements adaptive elimination (§4): the building
// phase that evaluates each elimination option's plan trees into a cost
// graph, and the probing phase that selects the efficient combination of
// options through dynamic programming with candidate costs — beside every
// other selection rule of the evaluation (select.go).
//
// The cost graph is organized exactly as the paper's: operators are keyed
// by coordinate intervals O(I_l, I_r) within multiplication-chain blocks;
// an operator may carry several costs (the plain cost, an LSE-amortized
// cost, apportioned CSE candidate costs), and probing resolves which cost
// and which downstream operator every input uses, yielding one plan tree
// per block with reuse annotations.
package costgraph

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"remac/internal/chain"
	"remac/internal/cost"
	"remac/internal/search"
	"remac/internal/sparsity"
)

// Config parameterizes adaptive elimination.
type Config struct {
	// Model prices operators on the target cluster; its estimator also
	// propagates sparsity through intermediate results.
	Model *cost.Model
	// Iterations is the loop trip count used to amortize LSE producer
	// costs (c_O divided by the number of iterations, §4.3.1).
	Iterations int
}

func (c Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("costgraph: nil cost model")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("costgraph: Iterations = %d", c.Iterations)
	}
	return nil
}

// OpNode is one operator of a resolved block plan: either an interior
// multiplication, a leaf atom, or a reused span.
type OpNode struct {
	Lo, Hi int
	// ReuseOf is non-nil when this span's value comes from the reuse cache
	// (a selected CSE/LSE option).
	ReuseOf *search.Option
	// Flipped marks reuses that must transpose the cached value.
	Flipped bool
	L, R    *OpNode
	Meta    sparsity.Meta
	Local   bool
	// Cost is this operator's own cost (zero for leaves and reuses except
	// the transpose charge).
	Cost cost.Breakdown
}

// IsLeaf reports whether the node is a single atom.
func (n *OpNode) IsLeaf() bool { return n.Lo == n.Hi && n.ReuseOf == nil }

// Walk visits the tree pre-order.
func (n *OpNode) Walk(fn func(*OpNode)) {
	if n == nil {
		return
	}
	fn(n)
	n.L.Walk(fn)
	n.R.Walk(fn)
}

// BlockPlan is the resolved execution plan of one block.
type BlockPlan struct {
	Block *chain.Block
	Root  *OpNode
	// Cost is the residual per-iteration cost of this block's operators
	// (reused spans excluded — their producers are accounted globally).
	Cost float64
}

// ProducerPlan describes how a selected option's value is computed.
type ProducerPlan struct {
	Option *search.Option
	Root   *OpNode
	// Cost is the producer's full cost; for LSE options the charged cost
	// is Cost/Iterations.
	Cost float64
	// Charged is the per-iteration charge after CSE apportioning / LSE
	// amortization.
	Charged float64
}

// Decision is the outcome of adaptive elimination.
type Decision struct {
	Selected   []*search.Option
	BlockPlans []*BlockPlan
	Producers  []*ProducerPlan
	// TotalCost is the modelled per-iteration cost of the loop body under
	// the selected combination.
	TotalCost float64
	// BuildTime and ProbeTime split the compilation overhead like Fig 10a.
	BuildTime time.Duration
	ProbeTime time.Duration
	// Evaluated counts cost-graph evaluations (combinations for Enum,
	// marginal probes for DP).
	Evaluated int
}

// ProducerSig encodes the shape of a producer plan tree — its split points —
// so an intermediate-cache or MQO sharing key pins down the exact kernel
// sequence that produced the value. Two queries whose optimizers
// parenthesized the same canonical expression differently get different
// keys, which is what makes reusing a materialized value bitwise-identical
// to recomputation. Producers that reference other options' reuse leaves
// return "" (not shareable standalone: their value chains through
// run-local state).
func ProducerSig(n *OpNode) string {
	if n == nil {
		return ""
	}
	if n.ReuseOf != nil {
		return ""
	}
	if n.Lo == n.Hi {
		return fmt.Sprintf("%d", n.Lo)
	}
	l, r := ProducerSig(n.L), ProducerSig(n.R)
	if l == "" || r == "" {
		return ""
	}
	return "(" + l + "." + r + ")"
}

// Keys returns the selected option keys (sorted) for reporting.
func (d *Decision) Keys() []string {
	out := make([]string, len(d.Selected))
	for i, o := range d.Selected {
		out[i] = o.Key
	}
	sort.Strings(out)
	return out
}

// Planner evaluates option combinations over a coordinate system.
type Planner struct {
	cfg       Config
	coords    *chain.Coordinates
	options   []*search.Option
	conflicts [][]bool

	// occIndex maps (block, lo, hi) to the option occupying that span.
	occIndex map[[3]int]occRef
	// blockOpts lists option IDs with an occurrence in each block, so
	// block-cost memoization can fingerprint only the relevant selection.
	blockOpts map[int][]int

	blockCache map[string]float64
	prodCache  map[string]float64

	buildTime time.Duration
	// ctx is checked once per span of the chain DP and once per probe
	// evaluation; its error ends the planning.
	ctx context.Context
}

type occRef struct {
	opt     *search.Option
	flipped bool
}

// NewPlanner builds the cost graph for a searched program: the building
// phase of Algorithm 1 (per-option plan evaluation happens lazily and
// memoized inside Evaluate, which keeps the graph sparse). Once ctx is done,
// the planner's evaluations stop within one span of a chain DP, and its
// decisions return ctx's error.
func NewPlanner(ctx context.Context, cfg Config, res *search.Result) (*Planner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	p := &Planner{
		ctx:        ctx,
		cfg:        cfg,
		coords:     res.Coords,
		options:    res.Options,
		conflicts:  search.ConflictMatrix(res.Options),
		occIndex:   map[[3]int]occRef{},
		blockOpts:  map[int][]int{},
		blockCache: map[string]float64{},
		prodCache:  map[string]float64{},
	}
	for _, o := range p.options {
		seen := map[int]bool{}
		for _, occ := range o.Occs {
			p.occIndex[[3]int{occ.Block, occ.Lo, occ.Hi}] = occRef{opt: o, flipped: occ.Flipped}
			if !seen[occ.Block] {
				seen[occ.Block] = true
				p.blockOpts[occ.Block] = append(p.blockOpts[occ.Block], o.ID)
			}
		}
	}
	p.buildTime = time.Since(start)
	return p, nil
}

// EvaluateCost is Evaluate without materializing plan trees, memoized per
// block and per producer on the relevant selection fingerprint. The probing
// and enumeration loops call this; only the final decision materializes
// trees.
func (p *Planner) EvaluateCost(sel []bool) (float64, error) {
	if len(sel) != len(p.options) {
		return 0, fmt.Errorf("costgraph: selection length %d, want %d", len(sel), len(p.options))
	}
	total := 0.0
	// Keys are built in one buffer; a lookup by string(key) does not copy it.
	var buf [64]byte
	for _, b := range p.coords.Blocks {
		key := p.appendFingerprint(buf[:0], b.ID, sel, -1)
		if c, ok := p.blockCache[string(key)]; ok {
			total += c
			continue
		}
		bp, err := p.blockPlan(b, sel)
		if err != nil {
			return 0, err
		}
		p.blockCache[string(key)] = bp.Cost
		total += bp.Cost
	}
	for i, o := range p.options {
		if !sel[i] {
			continue
		}
		// The charge depends on the selection inside every block the
		// producer contracts: the first occurrence's, and for a grouped sum
		// the second member's too (groupProducer).
		contracted := 1
		if o.Kind == search.CSEGroup {
			contracted = 2
		}
		key := binary.AppendUvarint(buf[:0], uint64(o.ID))
		for _, occ := range o.Occs[:min(contracted, len(o.Occs))] {
			key = p.appendFingerprint(key, occ.Block, sel, o.ID)
		}
		if c, ok := p.prodCache[string(key)]; ok {
			total += c
			continue
		}
		pp, err := p.producer(o, sel)
		if err != nil {
			return 0, err
		}
		p.prodCache[string(key)] = pp.Charged
		total += pp.Charged
	}
	return total, nil
}

// appendFingerprint appends to buf an encoding of which of a block's
// candidate options are selected (excluding one option, for producer keys):
// the block ID, the count of those options and their IDs, each a uvarint, so
// no two blocks or selections, nor two fingerprints in a row, read alike.
func (p *Planner) appendFingerprint(buf []byte, blockID int, sel []bool, exclude int) []byte {
	n := 0
	for _, id := range p.blockOpts[blockID] {
		if id != exclude && sel[id] {
			n++
		}
	}
	buf = binary.AppendUvarint(binary.AppendUvarint(buf, uint64(blockID)), uint64(n))
	for _, id := range p.blockOpts[blockID] {
		if id != exclude && sel[id] {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	return buf
}

// Evaluate computes the total per-iteration cost of a selection: the
// residual chain costs of every block (selected spans contracted to reuse
// leaves) plus each selected option's producer charge (apportioned for CSE,
// amortized over iterations for LSE). Group options (cross-block sums)
// charge one producer and make their member blocks free.
func (p *Planner) Evaluate(sel []bool) (float64, []*BlockPlan, []*ProducerPlan, error) {
	if len(sel) != len(p.options) {
		return 0, nil, nil, fmt.Errorf("costgraph: selection length %d, want %d", len(sel), len(p.options))
	}
	// Residual block costs.
	var plans []*BlockPlan
	total := 0.0
	for _, b := range p.coords.Blocks {
		bp, err := p.blockPlan(b, sel)
		if err != nil {
			return 0, nil, nil, err
		}
		plans = append(plans, bp)
		total += bp.Cost
	}
	// Producer charges.
	var producers []*ProducerPlan
	for i, o := range p.options {
		if !sel[i] {
			continue
		}
		pp, err := p.producer(o, sel)
		if err != nil {
			return 0, nil, nil, err
		}
		producers = append(producers, pp)
		total += pp.Charged
	}
	return total, plans, producers, nil
}

// blockPlan computes the optimal parenthesization of one block under a
// selection: maximal selected spans become reuse leaves; the rest is the
// classic matrix-chain DP priced by the cost model.
func (p *Planner) blockPlan(b *chain.Block, sel []bool) (*BlockPlan, error) {
	items, err := p.contract(b, 0, b.Len()-1, sel, nil)
	if err != nil {
		return nil, err
	}
	root, c, err := p.chainDP(items)
	if err != nil {
		return nil, fmt.Errorf("block %d (%s): %w", b.ID, b.Key(), err)
	}
	return &BlockPlan{Block: b, Root: root, Cost: c}, nil
}

// item is a contracted chain element: a single atom or a reused span.
type item struct {
	lo, hi  int
	meta    sparsity.Meta
	local   bool
	reuse   *search.Option
	flipped bool
	// sym/t identify single-atom items for TSMM detection (t(X)·X).
	sym string
	t   bool
	// cost is the item's own charge inside this block (e.g. transposing a
	// flipped reuse).
	cost float64
}

// tsmmPair reports whether two adjacent single-atom items form a
// transpose-self product t(X)·X or X·t(X).
func tsmmPair(l, r item) bool {
	if l.sym == "" || r.sym == "" || l.sym != r.sym {
		return false
	}
	return l.t != r.t
}

// chainDP runs the cost-model-priced matrix-chain ordering over contracted
// items and returns the optimal tree and cost: per cell, the split k with
// the smallest cost, the first in k on a tie.
//
// A split is priced — and its product estimated — only while it can still
// win. Its bound l.cost + r.cost + MulLowerBound never exceeds its cost, so
// visiting splits in ascending bound order, a split whose bound is above the
// best cost so far (or equal to it, at a larger k) cannot be chosen and is
// skipped. The choice, and so every tree, cost and Meta, is the one the
// exhaustive scan makes.
func (p *Planner) chainDP(items []item) (*OpNode, float64, error) {
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
	// split is one candidate split point of a cell with its lower bound.
	type split struct {
		bound float64
		k     int
	}
	model := p.cfg.Model
	dp := make([]cell, n*n) // cell (i, j) at i*n+j
	for i := range items {
		dp[i*n+i] = cell{cost: items[i].cost, split: -1, meta: items[i].meta, local: items[i].local}
	}
	var scratch [16]split
	for span := 2; span <= n; span++ {
		if err := p.ctx.Err(); err != nil {
			return nil, 0, err
		}
		for i := 0; i+span-1 < n; i++ {
			j := i + span - 1
			// Bound every split, kept in ascending bound order (then k) by
			// insertion: chains are short.
			order := scratch[:0]
			for k := i; k < j; k++ {
				l, r := &dp[i*n+k], &dp[(k+1)*n+j]
				if l.meta.Cols != r.meta.Rows {
					return nil, 0, fmt.Errorf("costgraph: chain dims %d vs %d", l.meta.Cols, r.meta.Rows)
				}
				s := split{bound: l.cost + r.cost + model.MulLowerBound(l.meta, r.meta, l.local, r.local), k: k}
				order = append(order, s)
				x := len(order) - 1
				for ; x > 0 && order[x-1].bound > s.bound; x-- {
					order[x] = order[x-1]
				}
				order[x] = s
			}
			best := cell{cost: math.Inf(1), split: -1}
			for _, s := range order {
				if s.bound > best.cost || (s.bound == best.cost && s.k > best.split) {
					continue
				}
				k := s.k
				l, r := &dp[i*n+k], &dp[(k+1)*n+j]
				tsmm := i == k && k+1 == j && tsmmPair(items[i], items[j])
				outMeta, bd, outLocal := model.MulHinted(l.meta, r.meta, l.local, r.local, tsmm)
				c := l.cost + r.cost + bd.Total()
				if c < best.cost || (c == best.cost && k < best.split) {
					best = cell{cost: c, split: k, meta: outMeta, local: outLocal}
				}
			}
			dp[i*n+j] = best
		}
	}
	// Rebuild the tree.
	var build func(i, j int) *OpNode
	build = func(i, j int) *OpNode {
		c := dp[i*n+j]
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
	return build(0, n-1), dp[n-1].cost, nil
}

// producer computes how a selected option's value is produced and what it
// charges per iteration.
func (p *Planner) producer(o *search.Option, sel []bool) (*ProducerPlan, error) {
	if o.Kind == search.CSEGroup {
		return p.groupProducer(o, sel)
	}
	// The producer computes the canonical span, reusing nested selected
	// options. Build a synthetic block over the canonical atoms; nested
	// occurrences are found through the option's first occurrence.
	occ := o.Occs[0]
	b := p.coords.Blocks[occ.Block]
	items, err := p.contract(b, occ.Lo, occ.Hi, sel, o)
	if err != nil {
		return nil, err
	}
	root, c, err := p.chainDP(items)
	if err != nil {
		return nil, fmt.Errorf("producer %s: %w", o.Key, err)
	}
	pp := &ProducerPlan{Option: o, Root: root, Cost: c}
	if o.Kind == search.LSE {
		pp.Charged = c / float64(p.cfg.Iterations)
	} else {
		pp.Charged = c
	}
	return pp, nil
}

// contract contracts the sub-chain [lo, hi] of a block, replacing maximal
// selected spans with reuse leaves. A producer (self non-nil) computes its
// span, so neither that span nor another occurrence of self is a reuse leaf
// in it.
func (p *Planner) contract(b *chain.Block, lo, hi int, sel []bool, self *search.Option) ([]item, error) {
	var items []item
	for i := lo; i <= hi; {
		// Find the longest selected span starting at i.
		best := -1
		var bestRef occRef
		for j := hi; j > i; j-- {
			if self != nil && i == lo && j == hi {
				continue
			}
			ref, ok := p.occIndex[[3]int{b.ID, i, j}]
			if ok && ref.opt != self && sel[ref.opt.ID] {
				best, bestRef = j, ref
				break
			}
		}
		if best >= 0 {
			m, err := p.coords.SpanMeta(b, i, best, p.cfg.Model.Estimator())
			if err != nil {
				return nil, err
			}
			it := item{lo: i, hi: best, meta: m, local: p.cfg.Model.FitsLocal(m), reuse: bestRef.opt, flipped: bestRef.flipped}
			if bestRef.flipped {
				// Reusing the transposed cached value costs a transpose.
				_, bd, _ := p.cfg.Model.Transpose(m, it.local)
				it.cost = bd.Total()
			}
			items = append(items, it)
			i = best + 1
			continue
		}
		m, err := p.coords.AtomMeta(b.Atoms[i], p.cfg.Model.Estimator())
		if err != nil {
			return nil, err
		}
		a := b.Atoms[i]
		items = append(items, item{lo: i, hi: i, meta: m, local: p.cfg.Model.FitsLocal(m), sym: a.Sym, t: a.T})
		i++
	}
	return items, nil
}

// groupProducer charges a cross-block grouped sum: the member chains are
// produced (reusing their own selected spans), then added once.
func (p *Planner) groupProducer(o *search.Option, sel []bool) (*ProducerPlan, error) {
	// Pair occurrences: [0],[1] form the sum; later pairs reuse it.
	total := 0.0
	var lastMeta sparsity.Meta
	for i := 0; i < 2 && i < len(o.Occs); i++ {
		occ := o.Occs[i]
		b := p.coords.Blocks[occ.Block]
		items, err := p.contract(b, occ.Lo, occ.Hi, sel, o)
		if err != nil {
			return nil, err
		}
		_, c, err := p.chainDP(items)
		if err != nil {
			return nil, err
		}
		total += c
		m, err := p.coords.SpanMeta(b, occ.Lo, occ.Hi, p.cfg.Model.Estimator())
		if err != nil {
			return nil, err
		}
		lastMeta = m
	}
	// One addition of the two members.
	_, bd, _ := p.cfg.Model.EWise(cost.EWAdd, lastMeta, lastMeta, p.cfg.Model.FitsLocal(lastMeta), p.cfg.Model.FitsLocal(lastMeta))
	total += bd.Total()
	return &ProducerPlan{Option: o, Cost: total, Charged: total}, nil
}

// BaselineTrees returns each block's optimal tree with no eliminations —
// the "original execution order" the conservative strategy preserves.
func (p *Planner) BaselineTrees() ([]*BlockPlan, float64, error) {
	sel := make([]bool, len(p.options))
	total, plans, _, err := p.Evaluate(sel)
	return plans, total, err
}
