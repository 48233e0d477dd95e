// Package opt is the optimizer pipeline: it compiles a parsed program
// through lowering, normalization, coordinate extraction, redundancy search
// and option selection, producing everything the engine needs to run. The
// six selection strategies of the evaluation are implemented here:
//
//	NoElimination — stock SystemDS with CSE disabled (SystemDS*)
//	Explicit      — stock SystemDS: identical-subtree CSE only
//	Conservative  — options that follow the original execution order (§6.3.1)
//	Aggressive    — all non-contradictory options, order-changing first
//	Automatic     — all non-contradictory options found by the block-wise
//	                search (§6.2.2: "applies as many options as possible")
//	Adaptive      — ReMac's cost-based combination (§4)
package opt

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/costgraph"
	"remac/internal/lang"
	"remac/internal/plan"
	"remac/internal/search"
	"remac/internal/sparsity"
)

// Strategy selects how elimination options are chosen.
type Strategy int

const (
	// NoElimination disables CSE and LSE entirely (SystemDS* in §6.2).
	NoElimination Strategy = iota
	// Explicit applies only identical-subtree CSE, like stock SystemDS.
	Explicit
	// Conservative applies options that preserve the original execution
	// order of operators.
	Conservative
	// Aggressive applies every applicable option, prioritizing those that
	// change the original execution order.
	Aggressive
	// Automatic applies as many block-wise options as possible.
	Automatic
	// Adaptive runs the cost-graph probing of §4.3.
	Adaptive
	// SPORESLike searches with the sampled equality-saturation baseline
	// (CSE only, no LSE) and applies everything it finds.
	SPORESLike
	// Manual applies exactly the options named in Config.ManualKeys —
	// used to reproduce specific combinations like Fig 3's "AᵀA, ddᵀ" bar.
	Manual
)

// String names the strategy as reported in experiment output.
func (s Strategy) String() string {
	switch s {
	case NoElimination:
		return "SystemDS*"
	case Explicit:
		return "SystemDS"
	case Conservative:
		return "conservative"
	case Aggressive:
		return "aggressive"
	case Automatic:
		return "automatic"
	case Adaptive:
		return "adaptive"
	case SPORESLike:
		return "SPORES"
	case Manual:
		return "manual"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// strategyNames is the one table of the strategies a query can name: the
// names travel on the wire and are the public remac.Strategy values.
var strategyNames = []struct {
	name     string
	strategy Strategy
}{
	{"none", NoElimination},
	{"explicit", Explicit},
	{"conservative", Conservative},
	{"aggressive", Aggressive},
	{"automatic", Automatic},
	{"adaptive", Adaptive},
}

// ParseStrategy returns the strategy a name selects; the empty name is
// Adaptive, and an unknown one is an error listing the accepted names.
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return Adaptive, nil
	}
	for _, e := range strategyNames {
		if e.name == name {
			return e.strategy, nil
		}
	}
	names := make([]string, len(strategyNames))
	for i, e := range strategyNames {
		names[i] = e.name
	}
	return 0, fmt.Errorf("unknown strategy %q (want one of %s)", name, strings.Join(names, ", "))
}

// Name is the name ParseStrategy takes back to s. A strategy no query can
// name (SPORESLike, Manual) is named as the default, Adaptive.
func (s Strategy) Name() string {
	for _, e := range strategyNames {
		if e.strategy == s {
			return e.name
		}
	}
	return "adaptive"
}

// Combiner selects the adaptive combination algorithm (Fig 10's DP vs Enum).
type Combiner int

const (
	// DP is the dynamic programming probing (the ReMac default).
	DP Combiner = iota
	// EnumDFS enumerates combinations depth-first.
	EnumDFS
	// EnumBFS enumerates combinations breadth-first.
	EnumBFS
)

// String names the combiner.
func (c Combiner) String() string {
	switch c {
	case DP:
		return "DP"
	case EnumDFS:
		return "Enum-DFS"
	default:
		return "Enum-BFS"
	}
}

// Config parameterizes compilation.
type Config struct {
	Strategy  Strategy
	Estimator sparsity.Estimator // nil → metadata-based
	Cluster   cluster.Config
	// Iterations is the expected loop trip count for LSE amortization.
	Iterations int
	Combiner   Combiner
	// EnumBudget bounds Enum combiners.
	EnumBudget costgraph.EnumBudget
	// ManualKeys names the option keys the Manual strategy applies, in
	// priority order (conflicting later keys are skipped).
	ManualKeys []string
}

// Resolver implements plan.Resolver over input metas, derived statement
// metas and a symmetry table.
type Resolver struct {
	metas map[string]sparsity.Meta
	sym   plan.SymTable
}

// MetaFor implements plan.Resolver.
func (r *Resolver) MetaFor(sym string) (sparsity.Meta, bool) {
	m, ok := r.metas[strings.SplitN(sym, "#", 2)[0]]
	return m, ok
}

// IsSymmetric implements plan.Resolver.
func (r *Resolver) IsSymmetric(sym string) bool { return r.sym.IsSymmetric(sym) }

// Compiled is a fully optimized program ready for execution.
type Compiled struct {
	Config   Config
	Program  *lang.Program
	Plans    *plan.Plans
	Resolver *Resolver
	// NormalizedBody holds the normalized trees the engine executes. For
	// option strategies it aligns with the non-inlined body statements
	// (inlined definitions are absorbed); for the SystemDS baselines
	// (UsesRawBody) it aligns with every body statement's raw tree.
	NormalizedBody []*plan.Node
	// UsesRawBody marks the SystemDS-style baselines: statement-by-
	// statement execution of uninlined trees with cost-ordered chains but
	// no elimination options.
	UsesRawBody bool
	Coords      *chain.Coordinates
	Search      *search.Result
	Decision    *costgraph.Decision
	// SelectedKeys is the set of applied option keys (empty for
	// NoElimination/Explicit).
	SelectedKeys map[string]bool
	// SearchTime and PlanTime split compilation like Fig 8(a)/10(a).
	SearchTime time.Duration
	PlanTime   time.Duration
	TotalTime  time.Duration
}

// SharedKey is the key a run shares a loop-constant (LSE) producer's value
// under, with later runs and with the sibling runs of an MQO batch: the
// option's transpose-normalized canonical key (chain.CanonicalKey form, e.g.
// "A'·A") and the producer plan's shape signature (costgraph.ProducerSig),
// with "|f" when the producer computes the transposed chain and transposes
// back — a distinct kernel sequence. So two values under one key come from
// the bitwise-identical sequence of kernel executions. "" when the value
// cannot be shared: it is not loop-constant, or its producer reads other
// options' run-local values.
func SharedKey(pp *costgraph.ProducerPlan) string {
	if pp == nil || pp.Option == nil || pp.Option.Kind != search.LSE {
		return ""
	}
	sig := costgraph.ProducerSig(pp.Root)
	if sig == "" {
		return ""
	}
	if len(pp.Option.Occs) > 0 && pp.Option.Occs[0].Flipped {
		sig += "|f"
	}
	return pp.Option.Key + "|" + sig
}

// SharedManifest lists the SharedKey of each of the compiled plan's
// shareable loop-constant producers, sorted: what a serving layer's MQO
// batch indexes a plan by. Nil when the decision selected none (including
// every non-adaptive strategy without producer plans).
func (c *Compiled) SharedManifest() []string {
	if c == nil || c.Decision == nil {
		return nil
	}
	var keys []string
	for _, pp := range c.Decision.Producers {
		if k := SharedKey(pp); k != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// ErrCanceled reports a compilation or execution abandoned because its
// context was cancelled or its deadline expired. Both CompileCtx and
// engine.RunWithOptions wrap it, so callers can match one sentinel:
//
//	errors.Is(err, opt.ErrCanceled)
var ErrCanceled = errors.New("remac: canceled")

// Canceled wraps a context error in ErrCanceled, preserving the cause in
// the message. Returns nil for a nil cause.
func Canceled(phase string, cause error) error {
	if cause == nil {
		return nil
	}
	return fmt.Errorf("%s: %w (%v)", phase, ErrCanceled, cause)
}

// Compile runs the pipeline on a program with the given input metadata
// (virtual dimensions and sparsity per read() name).
func Compile(prog *lang.Program, inputs map[string]sparsity.Meta, cfg Config) (*Compiled, error) {
	return CompileCtx(context.Background(), prog, inputs, cfg)
}

// CompileCtx is Compile with cancellation threaded through the pipeline:
// the context is checked between phases and inside the block-wise search's
// window sweeps, so a cancelled or expired query stops compiling promptly
// and returns an error wrapping ErrCanceled.
func CompileCtx(ctx context.Context, prog *lang.Program, inputs map[string]sparsity.Meta, cfg Config) (*Compiled, error) {
	if cfg.Estimator == nil {
		cfg.Estimator = sparsity.Metadata{}
	}
	// One memoizing view of the estimator serves the whole compilation —
	// resolver, search and cost graph — so a product estimated while
	// inferring statement metas is not estimated again while pricing chains,
	// however often the chain DP re-derives it. The table lives for this
	// call only: Compiled records cfg.Estimator and holds plain metas.
	return compile(ctx, prog, inputs, cfg, sparsity.NewMemo(cfg.Estimator))
}

// compile runs the pipeline with est doing all estimation; cfg.Estimator is
// what the result reports.
func compile(ctx context.Context, prog *lang.Program, inputs map[string]sparsity.Meta, cfg Config, est sparsity.Estimator) (*Compiled, error) {
	start := time.Now()
	if cfg.Iterations < 1 {
		cfg.Iterations = 1
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled("opt: compile", err)
	}

	plans, err := plan.Build(prog)
	if err != nil {
		return nil, err
	}
	res, err := buildResolver(plans, inputs, est)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Config:       cfg,
		Program:      prog,
		Plans:        plans,
		Resolver:     res,
		SelectedKeys: map[string]bool{},
	}

	// Extend the declared symmetry facts with provably symmetric derived
	// variables (e.g. DFP's H through its rank-two update), so the
	// canonical keys unify everything they can.
	sym := plan.InferSymmetry(plans, plan.SymTable(plans.Symmetric))
	for s := range sym {
		plans.Symmetric[s] = true
	}
	if cfg.Strategy == NoElimination || cfg.Strategy == Explicit {
		// SystemDS baselines: no inlining, no expansion — chains keep the
		// as-written structure (non-chain subtrees become opaque atoms) and
		// get cost-optimal multiplication order, which stock SystemDS also
		// applies; only CSE/LSE is disabled (or, for Explicit, limited to
		// identical subtrees at execution time).
		c.UsesRawBody = true
		for _, sp := range plans.Body {
			c.NormalizedBody = append(c.NormalizedBody, plan.PushDownTranspose(sp.Raw, sym))
		}
		coords, err := chain.Extract(c.NormalizedBody, res, sym)
		if err != nil {
			return nil, err
		}
		c.Coords = coords
		planner, err := costgraph.NewPlanner(ctx, costgraph.Config{
			Model:      cost.NewModel(cfg.Cluster, est),
			Iterations: cfg.Iterations,
		}, &search.Result{Coords: coords})
		if err != nil {
			return nil, err
		}
		c.Decision, err = planner.Decide(nil)
		if cerr := ctx.Err(); err != nil && cerr != nil {
			return nil, Canceled("opt: plan", cerr)
		}
		if err != nil {
			return nil, err
		}
		c.TotalTime = time.Since(start)
		return c, nil
	}

	for _, root := range plans.SearchRoots() {
		c.NormalizedBody = append(c.NormalizedBody, plan.Normalize(root, sym))
	}
	coords, err := chain.Extract(c.NormalizedBody, res, sym)
	if err != nil {
		return nil, err
	}
	c.Coords = coords

	searchStart := time.Now()
	if cfg.Strategy == SPORESLike {
		c.Search = search.SPORES(coords, search.DefaultSPORESConfig())
	} else {
		c.Search, err = search.BlockWiseCtx(ctx, coords, est)
		if err != nil {
			return nil, Canceled("opt: search", err)
		}
	}
	c.SearchTime = time.Since(searchStart)

	if err := ctx.Err(); err != nil {
		return nil, Canceled("opt: plan", err)
	}
	planStart := time.Now()
	planner, err := costgraph.NewPlanner(ctx, costgraph.Config{
		Model:      cost.NewModel(cfg.Cluster, est),
		Iterations: cfg.Iterations,
	}, c.Search)
	if err != nil {
		return nil, err
	}
	c.Decision, err = selectOptions(planner, c.Search, cfg)
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return nil, Canceled("opt: plan", cerr)
	}
	if err != nil {
		return nil, err
	}
	c.PlanTime = time.Since(planStart)
	for _, o := range c.Decision.Selected {
		c.SelectedKeys[o.Key] = true
	}
	c.TotalTime = time.Since(start)
	return c, nil
}

// buildResolver infers metadata for every symbol: inputs from the caller,
// derived variables by propagating through their defining trees in program
// order (pre statements, then one pass over the loop body).
func buildResolver(plans *plan.Plans, inputs map[string]sparsity.Meta, est sparsity.Estimator) (*Resolver, error) {
	r := &Resolver{metas: map[string]sparsity.Meta{}, sym: plan.SymTable(plans.Symmetric)}
	for name, m := range inputs {
		if err := m.Valid(); err != nil {
			return nil, fmt.Errorf("opt: input %q: %w", name, err)
		}
		r.metas[name] = m
	}
	infer := func(stmts []plan.StmtPlan) error {
		for _, sp := range stmts {
			m, err := plan.InferMeta(sp.Tree, r, est)
			if err != nil {
				return fmt.Errorf("opt: statement %s: %w", sp.Target, err)
			}
			if _, isInput := inputs[sp.Target]; !isInput {
				r.metas[sp.Target] = m
			}
		}
		return nil
	}
	if err := infer(plans.Pre); err != nil {
		return nil, err
	}
	if err := infer(plans.Body); err != nil {
		return nil, err
	}
	// A second body pass stabilizes shapes of loop-carried variables whose
	// first-pass inference used pre-loop metas.
	if err := infer(plans.Body); err != nil {
		return nil, err
	}
	return r, nil
}

// selectOptions applies the strategy.
func selectOptions(p *costgraph.Planner, res *search.Result, cfg Config) (*costgraph.Decision, error) {
	switch cfg.Strategy {
	case Adaptive:
		switch cfg.Combiner {
		case EnumDFS:
			return p.Enumerate(costgraph.DFS, cfg.EnumBudget)
		case EnumBFS:
			return p.Enumerate(costgraph.BFS, cfg.EnumBudget)
		default:
			return p.Probe()
		}
	case Conservative:
		return conservative(p, res)
	case Aggressive:
		return greedyAll(p, res, true)
	case Automatic:
		return greedyAll(p, res, false)
	case SPORESLike:
		// SPORES is cost-based (equality saturation extracts the cheapest
		// plan from its e-graph), so pick among its sampled options with
		// the prober rather than applying everything.
		return p.Probe()
	case Manual:
		return manual(p, cfg.ManualKeys)
	}
	return nil, fmt.Errorf("opt: strategy %v does not select options", cfg.Strategy)
}

// manual selects the named options in order, skipping conflicts with
// already-selected ones.
func manual(p *costgraph.Planner, keys []string) (*costgraph.Decision, error) {
	sel := make([]bool, len(p.Options()))
	for _, key := range keys {
		for i, o := range p.Options() {
			if o.Key != key || sel[i] {
				continue
			}
			ok := true
			for j, s := range sel {
				if s && p.Conflicts()[i][j] {
					ok = false
					break
				}
			}
			if ok {
				sel[i] = true
			}
		}
	}
	return p.Decide(sel)
}

// conservative selects the options whose occurrence spans all appear as
// operator intervals of the baseline (no-elimination) block trees — i.e.
// the options that follow the original execution order.
func conservative(p *costgraph.Planner, res *search.Result) (*costgraph.Decision, error) {
	base, _, err := p.BaselineTrees()
	if err != nil {
		return nil, err
	}
	intervals := map[[3]int]bool{}
	for _, bp := range base {
		bp.Root.Walk(func(n *costgraph.OpNode) {
			intervals[[3]int{bp.Block.ID, n.Lo, n.Hi}] = true
		})
	}
	sel := make([]bool, len(p.Options()))
	for i, o := range p.Options() {
		ok := true
		for _, occ := range o.Occs {
			if !intervals[[3]int{occ.Block, occ.Lo, occ.Hi}] {
				ok = false
				break
			}
		}
		if !ok || o.Kind == search.CSEGroup {
			continue
		}
		sel[i] = true
	}
	return p.Decide(sel)
}

// greedyAll selects every option that fits: conflicting options are skipped
// in priority order. With orderChangingFirst, options that change the
// original execution order are tried first (the aggressive strategy);
// otherwise LSE options and longer spans lead (the automatic strategy).
func greedyAll(p *costgraph.Planner, res *search.Result, orderChangingFirst bool) (*costgraph.Decision, error) {
	opts := p.Options()
	order := make([]int, len(opts))
	for i := range order {
		order[i] = i
	}
	var inBaseline map[int]bool
	if orderChangingFirst {
		base, _, err := p.BaselineTrees()
		if err != nil {
			return nil, err
		}
		intervals := map[[3]int]bool{}
		for _, bp := range base {
			bp.Root.Walk(func(n *costgraph.OpNode) {
				intervals[[3]int{bp.Block.ID, n.Lo, n.Hi}] = true
			})
		}
		inBaseline = map[int]bool{}
		for i, o := range opts {
			all := true
			for _, occ := range o.Occs {
				if !intervals[[3]int{occ.Block, occ.Lo, occ.Hi}] {
					all = false
					break
				}
			}
			inBaseline[i] = all
		}
	}
	weight := func(i int) int {
		w := 0
		for _, occ := range opts[i].Occs {
			w += occ.Len()
		}
		if opts[i].Kind == search.LSE {
			w *= 2
		}
		return w
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if orderChangingFirst && inBaseline[i] != inBaseline[j] {
			return !inBaseline[i] // order-changing first
		}
		wi, wj := weight(i), weight(j)
		if wi != wj {
			return wi > wj
		}
		return i < j
	})
	sel := make([]bool, len(opts))
	for _, i := range order {
		if opts[i].Kind == search.CSEGroup {
			continue
		}
		compatible := true
		for j, s := range sel {
			if s && p.Conflicts()[i][j] {
				compatible = false
				break
			}
		}
		if compatible {
			sel[i] = true
		}
	}
	return p.Decide(sel)
}
