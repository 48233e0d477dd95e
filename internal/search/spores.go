package search

import (
	"math/rand"
	"time"

	"remac/internal/chain"
)

// This file implements the SPORES-style baseline of §6.2: an equality-
// saturation optimizer that, for long multiplication chains, falls back to
// sampling a limited number of chain permutations/parenthesizations. It
// finds only the common subexpressions explicit in the sampled plans and
// does not support loop-constant elimination.

// SPORESConfig tunes the sampled search.
type SPORESConfig struct {
	// Samples is the number of full plans drawn (the paper's "limited
	// number of attempts" on permutations of a chain).
	Samples int
	// Seed makes sampling reproducible.
	Seed int64
	// MaxChainLen is the longest chain SPORES handles natively; the
	// current implementation of SPORES "does not support running DFP or
	// BFGS entirely", which the evaluation works around by feeding it the
	// longest supported subexpression (partial DFP). Coordinates containing
	// longer chains are still processed, chain by chain.
	MaxChainLen int
}

// DefaultSPORESConfig mirrors the evaluation setup.
func DefaultSPORESConfig() SPORESConfig {
	return SPORESConfig{Samples: 64, Seed: 1, MaxChainLen: 12}
}

// SPORES runs the sampled baseline: for each sampled full plan, collect
// explicit subtree keys; keys seen at two or more disjoint spans across the
// samples become CSE options. No LSE options are produced.
func SPORES(c *chain.Coordinates, cfg SPORESConfig) *Result {
	start := time.Now()
	res := &Result{Coords: c}
	if cfg.Samples <= 0 {
		cfg.Samples = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	table := map[string][]twSpan{}
	var order []string
	for s := 0; s < cfg.Samples; s++ {
		res.Visited++
		for _, b := range c.Blocks {
			if b.Len() > cfg.MaxChainLen && cfg.MaxChainLen > 0 {
				// Chains beyond the supported length are skipped (the
				// sampling cannot cover them meaningfully).
				continue
			}
			t := randomTree(rng, 0, b.Len()-1)
			var walk func(n *treeNode)
			walk = func(n *treeNode) {
				if n == nil {
					return
				}
				if n.lo < n.hi {
					window := b.Atoms[n.lo : n.hi+1]
					// SPORES matches subexpressions syntactically in the
					// e-graph; transpose-hidden equivalences across chains
					// are found through rewrite rules, which sampling only
					// partially applies. Model this as plain (non-
					// normalized) keys.
					key := chain.SpanKey(window)
					if _, ok := table[key]; !ok {
						order = append(order, key)
					}
					table[key] = append(table[key], twSpan{block: b.ID, lo: n.lo, hi: n.hi})
				}
				walk(n.l)
				walk(n.r)
			}
			walk(t)
		}
	}

	for _, key := range order {
		occs := dedupSpans(table[key])
		if len(occs) >= 2 {
			res.Options = append(res.Options, &Option{
				ID: len(res.Options), Kind: CSE, Key: key, Occs: occs,
				Atoms: atomsForSpan(c, occs[0]),
			})
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// randomTree draws one parenthesization of [lo, hi] uniformly at random
// over split points (not uniform over trees, which is irrelevant here).
func randomTree(rng *rand.Rand, lo, hi int) *treeNode {
	if lo >= hi {
		return &treeNode{lo: lo, hi: hi}
	}
	k := lo + rng.Intn(hi-lo)
	return &treeNode{lo: lo, hi: hi, l: randomTree(rng, lo, k), r: randomTree(rng, k+1, hi)}
}
