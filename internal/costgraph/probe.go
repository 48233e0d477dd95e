package costgraph

import (
	"sort"
	"time"

	"remac/internal/search"
)

// This file implements the probing phase of Algorithm 1: the dynamic
// programming process that minimizes the accumulated cost of the top
// operator. Candidate (CSE) costs are handled by marginal evaluation: an
// option's apportioned costs are picked only when, in the joint upstream of
// its occurrences, the accumulated cost drops (the pick rule of §4.3.2);
// options whose candidate costs never help are discarded (the withdraw
// rule). The pass repeats until no pick or withdrawal changes the result —
// each pass corresponds to one resolution sweep over the cost graph.

// Probe runs adaptive elimination and returns the efficient combination.
func (p *Planner) Probe() (*Decision, error) {
	start := time.Now()
	sel := make([]bool, len(p.options))
	best, err := p.EvaluateCost(sel)
	if err != nil {
		return nil, err
	}
	evaluated := 1

	// Order options by weight (span length × occurrence count, LSE first):
	// long, frequent spans resolve first so nested candidates see their
	// context, mirroring the upstream-first recursion of probe().
	order := make([]int, len(p.options))
	for i := range order {
		order[i] = i
	}
	weight := func(o *search.Option) int {
		w := 0
		for _, occ := range o.Occs {
			w += occ.Len()
		}
		if o.Kind == search.LSE {
			w *= 2
		}
		return w
	}
	sort.SliceStable(order, func(a, b int) bool {
		oa, ob := p.options[order[a]], p.options[order[b]]
		wa, wb := weight(oa), weight(ob)
		if wa != wb {
			return wa > wb
		}
		return oa.ID < ob.ID
	})

	const eps = 1e-12
	for pass := 0; pass < 8; pass++ {
		improved := false
		// Pick phase: try adding each compatible option.
		for _, i := range order {
			if sel[i] || !p.compatibleWith(sel, i) {
				continue
			}
			sel[i] = true
			c, err := p.probeCost(sel)
			if err != nil {
				return nil, err
			}
			evaluated++
			if c < best-eps {
				best = c
				improved = true
			} else {
				sel[i] = false
			}
		}
		// Withdraw phase: drop options whose candidate costs stopped
		// contributing (their benefit may have been subsumed by later
		// picks).
		for _, i := range order {
			if !sel[i] {
				continue
			}
			sel[i] = false
			c, err := p.probeCost(sel)
			if err != nil {
				return nil, err
			}
			evaluated++
			if c < best-eps {
				best = c
				improved = true
			} else {
				sel[i] = true
			}
		}
		if !improved {
			break
		}
	}

	total, plans, producers, err := p.Evaluate(sel)
	if err != nil {
		return nil, err
	}
	d := &Decision{
		BlockPlans: plans,
		Producers:  producers,
		TotalCost:  total,
		BuildTime:  p.buildTime,
		ProbeTime:  time.Since(start),
		Evaluated:  evaluated,
	}
	for i, s := range sel {
		if s {
			d.Selected = append(d.Selected, p.options[i])
		}
	}
	return d, nil
}

// probeCost is one evaluation of the pick or withdraw phase: memoized, so
// most cost nothing, and the planner's context is checked before each.
func (p *Planner) probeCost(sel []bool) (float64, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, err
	}
	return p.EvaluateCost(sel)
}

func (p *Planner) compatibleWith(sel []bool, i int) bool {
	for j, s := range sel {
		if s && p.conflicts[i][j] {
			return false
		}
	}
	return true
}
