package costgraph

import (
	"sort"
	"time"

	"remac/internal/search"
)

// This file holds every rule that selects a combination of elimination
// options over one cost graph, so that two rules' plans differ only by their
// rule:
//
//	Probe        — the probing phase of Algorithm 1 (adaptive, §4.3)
//	Enumerate    — the brute-force Enum-DFS / Enum-BFS baselines (§6.3.3)
//	Conservative — options that follow the original execution order (§6.3.1)
//	Aggressive   — all non-contradictory options, order-changing first
//	Automatic    — all non-contradictory options, heaviest first (§6.2.2)
//	Manual       — the options named, in order
//
// They share one conflict test (compatibleWith), one weight order
// (weightOrder), one baseline-span set (followsBaseline) and one Decision
// builder (decide).

// Probe runs adaptive elimination and returns the efficient combination: the
// dynamic programming process that minimizes the accumulated cost of the top
// operator. Candidate (CSE) costs are handled by marginal evaluation: an
// option's apportioned costs are picked only when, in the joint upstream of
// its occurrences, the accumulated cost drops (the pick rule of §4.3.2);
// options whose candidate costs never help are discarded (the withdraw
// rule). The pass repeats until no pick or withdrawal changes the result —
// each pass corresponds to one resolution sweep over the cost graph.
func (p *Planner) Probe() (*Decision, error) {
	start := time.Now()
	sel := make([]bool, len(p.options))
	best, err := p.EvaluateCost(sel)
	if err != nil {
		return nil, err
	}
	evaluated := 1

	// Long, frequent spans resolve first so nested candidates see their
	// context, mirroring the upstream-first recursion of probe().
	order := p.weightOrder(nil)

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
	return p.decide(sel, start, evaluated)
}

// probeCost is one evaluation of the pick or withdraw phase: memoized, so
// most cost nothing, and the planner's context is checked before each.
func (p *Planner) probeCost(sel []bool) (float64, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, err
	}
	return p.EvaluateCost(sel)
}

// EnumMode selects the traversal order.
type EnumMode int

const (
	// DFS enumerates include/exclude decisions depth-first.
	DFS EnumMode = iota
	// BFS expands selections level by level (one more option per level).
	BFS
)

// String names the mode.
func (m EnumMode) String() string {
	if m == BFS {
		return "BFS"
	}
	return "DFS"
}

// EnumBudget bounds an enumeration run. It has no wall-clock cutoff, which
// would make the plan depend on host speed; the planner's context stops a
// runaway enumeration instead.
type EnumBudget struct {
	// MaxCombos caps evaluated combinations (0 = unlimited).
	MaxCombos int
}

// Enumerate evaluates option combinations exhaustively (within budget) and
// returns the best found: combinations enumerated depth-first or
// breadth-first, contradictory selections pruned, each evaluated through the
// cost model. The combination budget stands in for the combinatorial
// explosion that makes full enumeration infeasible for DFP-sized programs
// (the paper measured over three days for GNMF). Options that cannot improve
// anything on their own are filtered first, like the paper's enumeration
// which considers the "millions of possible combinations" of useful options
// rather than the full power set.
func (p *Planner) Enumerate(mode EnumMode, budget EnumBudget) (*Decision, error) {
	start := time.Now()
	baseSel := make([]bool, len(p.options))
	base, err := p.EvaluateCost(baseSel)
	if err != nil {
		return nil, err
	}
	evaluated := 1

	// Filter to options with standalone benefit.
	var useful []int
	standalone := map[int]float64{}
	for i := range p.options {
		sel := make([]bool, len(p.options))
		sel[i] = true
		c, err := p.EvaluateCost(sel)
		if err != nil {
			return nil, err
		}
		evaluated++
		if c < base {
			useful = append(useful, i)
			standalone[i] = c
		}
	}
	// Deterministic order: strongest standalone benefit first, so budget-
	// capped runs cover the promising corner of the combination space.
	sort.SliceStable(useful, func(a, b int) bool {
		ca, cb := standalone[useful[a]], standalone[useful[b]]
		if ca != cb {
			return ca < cb
		}
		return useful[a] < useful[b]
	})

	bestSel := make([]bool, len(p.options))
	bestCost := base
	outOfBudget := func() bool {
		return budget.MaxCombos > 0 && evaluated >= budget.MaxCombos
	}

	try := func(sel []bool) error {
		c, err := p.EvaluateCost(sel)
		if err != nil {
			return err
		}
		evaluated++
		if c < bestCost {
			bestCost = c
			copy(bestSel, sel)
		}
		return nil
	}

	switch mode {
	case DFS:
		sel := make([]bool, len(p.options))
		var rec func(idx int) error
		rec = func(idx int) error {
			if outOfBudget() || idx >= len(useful) {
				return nil
			}
			i := useful[idx]
			// Include branch first (conflict pruning), so the promising
			// corner of the space is covered before the budget trips.
			if p.compatibleWith(sel, i) {
				sel[i] = true
				if err := try(sel); err != nil {
					return err
				}
				if err := rec(idx + 1); err != nil {
					return err
				}
				sel[i] = false
			}
			if outOfBudget() {
				return nil
			}
			// Exclude branch.
			return rec(idx + 1)
		}
		if err := rec(0); err != nil {
			return nil, err
		}
	case BFS:
		frontier := [][]bool{make([]bool, len(p.options))}
		for level := 0; level < len(useful) && len(frontier) > 0 && !outOfBudget(); level++ {
			var next [][]bool
			for _, sel := range frontier {
				if outOfBudget() {
					break
				}
				for _, i := range useful {
					if sel[i] || !p.compatibleWith(sel, i) {
						continue
					}
					// Only extend with options after the last selected one
					// to avoid revisiting permutations.
					if lastSelected(sel, useful) >= indexOf(useful, i) {
						continue
					}
					child := append([]bool(nil), sel...)
					child[i] = true
					if err := try(child); err != nil {
						return nil, err
					}
					next = append(next, child)
					if outOfBudget() {
						break
					}
				}
			}
			frontier = next
		}
	}
	return p.decide(bestSel, start, evaluated)
}

func lastSelected(sel []bool, useful []int) int {
	last := -1
	for pos, i := range useful {
		if sel[i] {
			last = pos
		}
	}
	return last
}

func indexOf(useful []int, v int) int {
	for pos, i := range useful {
		if i == v {
			return pos
		}
	}
	return -1
}

// Conservative selects the options, grouped sums excepted, whose occurrence
// spans all appear as operator intervals of the baseline (no-elimination)
// block trees — the options that follow the original execution order.
func (p *Planner) Conservative() (*Decision, error) {
	start := time.Now()
	sel, err := p.followsBaseline()
	if err != nil {
		return nil, err
	}
	for i, o := range p.options {
		sel[i] = sel[i] && o.Kind != search.CSEGroup
	}
	return p.decide(sel, start, 1)
}

// Aggressive selects every option that fits, grouped sums excepted: options
// that change the original execution order are tried first, then the
// heaviest; one conflicting with an option already selected is skipped.
func (p *Planner) Aggressive() (*Decision, error) {
	start := time.Now()
	changing, err := p.followsBaseline()
	if err != nil {
		return nil, err
	}
	for i := range changing {
		changing[i] = !changing[i]
	}
	return p.greedy(start, changing)
}

// Automatic applies as many options as possible, grouped sums excepted:
// LSE options and longer spans lead, and one conflicting with an option
// already selected is skipped.
func (p *Planner) Automatic() (*Decision, error) {
	return p.greedy(time.Now(), nil)
}

// greedy selects, in weightOrder(lead), every option other than a grouped
// sum that conflicts with none selected before it.
func (p *Planner) greedy(start time.Time, lead []bool) (*Decision, error) {
	var order []int
	for _, i := range p.weightOrder(lead) {
		if p.options[i].Kind != search.CSEGroup {
			order = append(order, i)
		}
	}
	return p.decide(p.pickCompatible(order), start, 1)
}

// Manual selects the options with the given keys, in key order, skipping
// any that conflicts with one already selected. With no keys it selects
// nothing, and the decision only orders each block's chain.
func (p *Planner) Manual(keys []string) (*Decision, error) {
	start := time.Now()
	var order []int
	for _, key := range keys {
		for i, o := range p.options {
			if o.Key == key {
				order = append(order, i)
			}
		}
	}
	return p.decide(p.pickCompatible(order), start, 1)
}

// pickCompatible selects the options of order in turn, each unless it
// conflicts with one selected before it.
func (p *Planner) pickCompatible(order []int) []bool {
	sel := make([]bool, len(p.options))
	for _, i := range order {
		if p.compatibleWith(sel, i) {
			sel[i] = true
		}
	}
	return sel
}

// compatibleWith reports whether option i conflicts with no selected option.
func (p *Planner) compatibleWith(sel []bool, i int) bool {
	for j, s := range sel {
		if s && p.conflicts[i][j] {
			return false
		}
	}
	return true
}

// weightOrder lists the option indices heaviest first, where an option's
// weight is its total occurrence length, doubled for LSE; ties go by ID (an
// option's ID is its index). With lead non-nil, the options it marks come
// before the rest.
func (p *Planner) weightOrder(lead []bool) []int {
	order := make([]int, len(p.options))
	weight := make([]int, len(p.options))
	for i, o := range p.options {
		order[i] = i
		for _, occ := range o.Occs {
			weight[i] += occ.Len()
		}
		if o.Kind == search.LSE {
			weight[i] *= 2
		}
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if lead != nil && lead[i] != lead[j] {
			return lead[i]
		}
		if weight[i] != weight[j] {
			return weight[i] > weight[j]
		}
		return i < j
	})
	return order
}

// followsBaseline reports, per option, whether every occurrence is an
// operator interval of the baseline trees.
func (p *Planner) followsBaseline() ([]bool, error) {
	base, _, err := p.BaselineTrees()
	if err != nil {
		return nil, err
	}
	intervals := map[[3]int]bool{}
	for _, bp := range base {
		bp.Root.Walk(func(n *OpNode) {
			intervals[[3]int{bp.Block.ID, n.Lo, n.Hi}] = true
		})
	}
	follows := make([]bool, len(p.options))
	for i, o := range p.options {
		follows[i] = true
		for _, occ := range o.Occs {
			follows[i] = follows[i] && intervals[[3]int{occ.Block, occ.Lo, occ.Hi}]
		}
	}
	return follows, nil
}

// decide evaluates a rule's final selection into a Decision. start is when
// the rule began (ProbeTime runs from it), evaluated the number of cost-graph
// evaluations the rule made.
func (p *Planner) decide(sel []bool, start time.Time, evaluated int) (*Decision, error) {
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
