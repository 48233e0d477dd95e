// Package search implements automatic elimination (§3): the block-wise
// sliding-window search for implicit common and loop-constant
// subexpressions, together with the tree-wise exhaustive baseline and a
// SPORES-style sampled baseline used in the evaluation (Fig 8).
package search

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"remac/internal/chain"
	"remac/internal/sparsity"
)

// OptionKind distinguishes elimination option kinds.
type OptionKind int

const (
	// CSE reuses a common subexpression within one iteration.
	CSE OptionKind = iota
	// LSE hoists a loop-constant subexpression out of the loop.
	LSE
	// CSEGroup is a cross-block CSE found by the factor-grouping extension
	// (a common sum like XY+YZ).
	CSEGroup
)

// String names the kind.
func (k OptionKind) String() string {
	switch k {
	case CSE:
		return "CSE"
	case LSE:
		return "LSE"
	case CSEGroup:
		return "CSE-group"
	default:
		return fmt.Sprintf("OptionKind(%d)", int(k))
	}
}

// Occurrence locates one window of an option: atoms [Lo, Hi] (inclusive
// indices) of block Block.
type Occurrence struct {
	Block  int
	Lo, Hi int
	// Flipped marks occurrences stored transposed relative to the
	// canonical form (the runtime transposes the reused result).
	Flipped bool
}

// Len returns the window length.
func (o Occurrence) Len() int { return o.Hi - o.Lo + 1 }

// Option is one elimination option: a subexpression that can be computed
// once and reused.
type Option struct {
	ID   int
	Kind OptionKind
	// Key is the canonical transpose-normalized subexpression string.
	Key  string
	Occs []Occurrence
	// Atoms is the canonical-form atom sequence (empty for CSEGroup).
	Atoms []chain.Atom
	// GroupParts holds the member chain keys for CSEGroup options.
	GroupParts []string
}

// String renders the option for explain output.
func (o *Option) String() string {
	return fmt.Sprintf("%s %s (%d occurrences)", o.Kind, o.Key, len(o.Occs))
}

// Result is the outcome of a search.
type Result struct {
	Options []*Option
	Coords  *chain.Coordinates
	// Elapsed is the wall-clock search time.
	Elapsed time.Duration
	// Visited counts windows (block-wise) or full plan trees (tree-wise,
	// SPORES) examined.
	Visited int
	// TimedOut marks a tree-wise search cut off by its deadline.
	TimedOut bool
}

// OptionByKey returns the option with the given canonical key, or nil.
func (r *Result) OptionByKey(key string) *Option {
	for _, o := range r.Options {
		if o.Key == key {
			return o
		}
	}
	return nil
}

// hit is one sliding-window observation: where, and with which atoms.
type hit struct {
	occ   Occurrence
	atoms []chain.Atom
}

// BlockWise runs the paper's block-wise search (§3.2–3.3): slide windows of
// every size over every block, record canonical keys in a hash table, read
// CSE options off key conflicts and LSE options off fully loop-constant
// windows, then run the cross-block grouping extension.
func BlockWise(c *chain.Coordinates, est sparsity.Estimator) *Result {
	res, err := BlockWiseCtx(context.Background(), c, est)
	if err != nil {
		// Unreachable: the background context never cancels.
		panic(err)
	}
	return res
}

// BlockWiseCtx is BlockWise with cancellation: the context is checked
// before each window size of a block's sweep, so an expired or cancelled
// compilation stops within one sweep of one size and returns the context's
// error instead of a partial result.
func BlockWiseCtx(ctx context.Context, c *chain.Coordinates, est sparsity.Estimator) (*Result, error) {
	start := time.Now()
	res := &Result{Coords: c}

	table := map[string][]hit{}
	order := []string{}

	for _, b := range c.Blocks {
		n := b.Len()
		for size := 2; size <= n; size++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for lo := 0; lo+size-1 < n; lo++ {
				hi := lo + size - 1
				window := b.Atoms[lo : hi+1]
				if !spanWellFormed(c, b, lo, hi) {
					continue
				}
				res.Visited++
				key, flipped := chain.CanonicalSpan(window)
				if _, seen := table[key]; !seen {
					order = append(order, key)
				}
				table[key] = append(table[key], hit{
					occ:   Occurrence{Block: b.ID, Lo: lo, Hi: hi, Flipped: flipped},
					atoms: window,
				})
			}
		}
	}

	for _, key := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hits := table[key]
		occs := disjointOccurrences(hits)
		if len(occs) == 0 {
			continue
		}
		atoms := canonicalAtoms(hits)
		loopConst := true
		for _, a := range atoms {
			if !a.LoopConst {
				loopConst = false
				break
			}
		}
		switch {
		case loopConst:
			// A loop-constant window is an LSE option regardless of how
			// often it occurs; LSE dominates CSE for the same span (the
			// hoisted cost amortizes over iterations, §4.3.1).
			res.Options = append(res.Options, &Option{
				ID: len(res.Options), Kind: LSE, Key: key, Occs: occs, Atoms: atoms,
			})
		case len(occs) >= 2:
			res.Options = append(res.Options, &Option{
				ID: len(res.Options), Kind: CSE, Key: key, Occs: occs, Atoms: atoms,
			})
		}
	}

	res.Options = append(res.Options, groupExtension(c, res)...)
	for i, o := range res.Options {
		o.ID = i
	}
	res.Elapsed = time.Since(start)
	_ = est
	return res, nil
}

// spanWellFormed verifies the window is a valid chain product (inner
// dimensions agree). Extraction guarantees this for whole blocks, and
// contiguous sub-windows of a valid chain are always valid, so this is a
// cheap structural guard kept for synthetic coordinates built by hand.
func spanWellFormed(_ *chain.Coordinates, b *chain.Block, lo, hi int) bool {
	return lo >= 0 && hi < b.Len()
}

// disjointOccurrences filters a key's hits to a maximal set of pairwise
// non-overlapping occurrences (overlapping occurrences of the same key —
// e.g. A·A at [0,1] and [1,2] in A·A·A — cannot both be reused).
func disjointOccurrences(hits []hit) []Occurrence {
	occs := make([]Occurrence, 0, len(hits))
	for _, h := range hits {
		occs = append(occs, h.occ)
	}
	// Total order (block, lo, hi): a lo-only sort leaves same-key windows
	// that share a start in arrival order, which for the parallel tree-wise
	// search depends on goroutine scheduling — and a different occurrence
	// set would change the chosen plan between identical compilations.
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].Block != occs[j].Block {
			return occs[i].Block < occs[j].Block
		}
		if occs[i].Lo != occs[j].Lo {
			return occs[i].Lo < occs[j].Lo
		}
		return occs[i].Hi < occs[j].Hi
	})
	out := occs[:0]
	lastBlock, lastHi := -1, -1
	for _, o := range occs {
		if o.Block == lastBlock && o.Lo <= lastHi {
			continue
		}
		out = append(out, o)
		lastBlock, lastHi = o.Block, o.Hi
	}
	return out
}

func canonicalAtoms(hits []hit) []chain.Atom {
	for _, h := range hits {
		if !h.occ.Flipped {
			return h.atoms
		}
	}
	// All occurrences are flipped: canonicalize the first.
	atoms := hits[0].atoms
	out := make([]chain.Atom, len(atoms))
	for i, a := range atoms {
		f := a
		if !a.Symm {
			f.T = !f.T
		}
		out[len(atoms)-1-i] = f
	}
	return out
}

// groupExtension implements the §3.2 discussion: revert expansion by
// extracting common prefix/suffix factors within each additive group, and
// detect grouped sums (e.g. XY+YZ) that occur in two or more groups.
func groupExtension(c *chain.Coordinates, base *Result) []*Option {
	// Group blocks, visiting groups in ascending id: the visiting order
	// numbers the options and orders each option's occurrences, both of
	// which the planner reads.
	groups := map[int][]*chain.Block{}
	var groupIDs []int
	for _, b := range c.Blocks {
		if _, seen := groups[b.Group]; !seen {
			groupIDs = append(groupIDs, b.Group)
		}
		groups[b.Group] = append(groups[b.Group], b)
	}
	sort.Ints(groupIDs)
	type occRef struct {
		blocks [2]int
		lo     [2]int
		hi     [2]int
	}
	sums := map[string][]occRef{}
	var order []string
	for _, id := range groupIDs {
		blocks := groups[id]
		if len(blocks) < 2 {
			continue
		}
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				b1, b2 := blocks[i], blocks[j]
				if b1.Negated != b2.Negated {
					continue // differing signs do not form a plain sum
				}
				for _, ref := range groupPair(b1, b2) {
					key := ref.key
					if _, ok := sums[key]; !ok {
						order = append(order, key)
					}
					sums[key] = append(sums[key], occRef{
						blocks: [2]int{b1.ID, b2.ID},
						lo:     [2]int{ref.lo1, ref.lo2},
						hi:     [2]int{ref.hi1, ref.hi2},
					})
				}
			}
		}
	}
	var opts []*Option
	for _, key := range order {
		refs := sums[key]
		if len(refs) < 2 {
			continue
		}
		var occs []Occurrence
		for _, r := range refs {
			occs = append(occs,
				Occurrence{Block: r.blocks[0], Lo: r.lo[0], Hi: r.hi[0]},
				Occurrence{Block: r.blocks[1], Lo: r.lo[1], Hi: r.hi[1]})
		}
		opts = append(opts, &Option{
			Kind:       CSEGroup,
			Key:        key,
			Occs:       occs,
			GroupParts: strings.Split(strings.Trim(key, "()"), " + "),
		})
	}
	_ = base
	return opts
}

type pairRef struct {
	key                string
	lo1, hi1, lo2, hi2 int
}

// groupPair finds the grouped-sum candidates for two summand blocks: strip
// the longest common prefix and the longest common suffix; the remainders
// form the grouped part.
func groupPair(b1, b2 *chain.Block) []pairRef {
	var out []pairRef
	p := commonPrefix(b1.Atoms, b2.Atoms)
	s := commonSuffix(b1.Atoms, b2.Atoms)
	// Prefix grouping: P·(X + Y)
	if p > 0 && p < b1.Len() && p < b2.Len() {
		out = append(out, makePair(b1, b2, p, b1.Len()-1, p, b2.Len()-1))
	}
	// Suffix grouping: (X + Y)·Q
	if s > 0 && s < b1.Len() && s < b2.Len() {
		out = append(out, makePair(b1, b2, 0, b1.Len()-1-s, 0, b2.Len()-1-s))
	}
	// Identity grouping: I·(chain1 + chain2) — the whole blocks.
	out = append(out, makePair(b1, b2, 0, b1.Len()-1, 0, b2.Len()-1))
	return out
}

func makePair(b1, b2 *chain.Block, lo1, hi1, lo2, hi2 int) pairRef {
	k1 := chain.CanonicalKey(b1.Atoms[lo1 : hi1+1])
	k2 := chain.CanonicalKey(b2.Atoms[lo2 : hi2+1])
	if k2 < k1 {
		k1, k2 = k2, k1
		lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
		b1, b2 = b2, b1
	}
	return pairRef{key: "(" + k1 + " + " + k2 + ")", lo1: lo1, hi1: hi1, lo2: lo2, hi2: hi2}
}

func commonPrefix(a, b []chain.Atom) int {
	n := 0
	for n < len(a) && n < len(b) && a[n].Key() == b[n].Key() {
		n++
	}
	return n
}

func commonSuffix(a, b []chain.Atom) int {
	n := 0
	for n < len(a) && n < len(b) && a[len(a)-1-n].Key() == b[len(b)-1-n].Key() {
		n++
	}
	return n
}

// Conflicts reports whether two options cannot both be applied: some pair
// of their occurrences overlaps partially within one block (spans that are
// nested or disjoint are compatible — a laminar family of intervals always
// embeds in one parenthesization).
func Conflicts(a, b *Option) bool {
	for _, oa := range a.Occs {
		for _, ob := range b.Occs {
			if oa.Block != ob.Block {
				continue
			}
			if partialOverlap(oa.Lo, oa.Hi, ob.Lo, ob.Hi) {
				return true
			}
		}
	}
	return false
}

func partialOverlap(l1, h1, l2, h2 int) bool {
	if h1 < l2 || h2 < l1 {
		return false // disjoint
	}
	if l1 <= l2 && h2 <= h1 {
		return false // 2 inside 1
	}
	if l2 <= l1 && h1 <= h2 {
		return false // 1 inside 2
	}
	return true
}

// ConflictMatrix precomputes pairwise conflicts for the DP/enumeration.
func ConflictMatrix(opts []*Option) [][]bool {
	m := make([][]bool, len(opts))
	for i := range m {
		m[i] = make([]bool, len(opts))
	}
	for i := 0; i < len(opts); i++ {
		for j := i + 1; j < len(opts); j++ {
			if Conflicts(opts[i], opts[j]) {
				m[i][j] = true
				m[j][i] = true
			}
		}
	}
	return m
}

// SpanMeta computes the metadata of an option's canonical span.
func (o *Option) SpanMeta(c *chain.Coordinates, est sparsity.Estimator) (sparsity.Meta, error) {
	if len(o.Atoms) == 0 {
		return sparsity.Meta{}, fmt.Errorf("search: option %q has no atom span", o.Key)
	}
	b := c.Blocks[o.Occs[0].Block]
	occ := o.Occs[0]
	return c.SpanMeta(b, occ.Lo, occ.Hi, est)
}
