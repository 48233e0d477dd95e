// Package opt is the optimizer pipeline: it compiles a parsed program
// through lowering, normalization, coordinate extraction, redundancy search
// and option selection, producing everything the engine needs to run. The
// selection strategies of the evaluation, whose rules live side by side in
// internal/costgraph:
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
	"strings"
	"sync"
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

// strategyNames is the one table of the strategies, by Strategy: the name a
// query selects it by (none for SPORESLike and Manual; the names travel on
// the wire and are the public remac.Strategy values) and the name experiment
// output reports it under.
var strategyNames = [...]struct{ name, report string }{
	NoElimination: {"none", "SystemDS*"},
	Explicit:      {"explicit", "SystemDS"},
	Conservative:  {"conservative", "conservative"},
	Aggressive:    {"aggressive", "aggressive"},
	Automatic:     {"automatic", "automatic"},
	Adaptive:      {"adaptive", "adaptive"},
	SPORESLike:    {"", "SPORES"},
	Manual:        {"", "manual"},
}

// String names the strategy as reported in experiment output.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s].report
}

// ParseStrategy returns the strategy a name selects; the empty name is
// Adaptive, and an unknown one is an error listing the accepted names.
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return Adaptive, nil
	}
	var names []string
	for s, e := range strategyNames {
		if e.name == name {
			return Strategy(s), nil
		}
		if e.name != "" {
			names = append(names, e.name)
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want one of %s)", name, strings.Join(names, ", "))
}

// Name is the name ParseStrategy takes back to s. A strategy no query can
// name (SPORESLike, Manual) is named as the default, Adaptive.
func (s Strategy) Name() string {
	if s >= 0 && int(s) < len(strategyNames) && strategyNames[s].name != "" {
		return strategyNames[s].name
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
	m, ok := r.metas[plan.BaseSym(sym)]
	return m, ok
}

// IsSymmetric implements plan.Resolver.
func (r *Resolver) IsSymmetric(sym string) bool { return r.sym.IsSymmetric(sym) }

// Compiled is a fully optimized program ready for execution. It holds the
// schedule its first run lowers (Schedule), so it is never copied.
type Compiled struct {
	Config   Config
	Program  *lang.Program
	Resolver *Resolver
	Coords   *chain.Coordinates
	Search   *search.Result
	// Decision is the plan choice: the applied options (none for
	// NoElimination/Explicit, whose decision only orders the chains).
	Decision *costgraph.Decision
	// SearchTime and PlanTime split compilation like Fig 8(a)/10(a).
	SearchTime time.Duration
	PlanTime   time.Duration
	TotalTime  time.Duration

	plans *plan.Plans
	// normalizedBody holds the body trees the schedule runs: the normalized
	// trees of the statements nothing inlined, or, for the SystemDS
	// baselines (usesRawBody: no elimination options, cost-ordered chains),
	// every body statement's raw tree.
	normalizedBody []*plan.Node
	usesRawBody    bool
	lowered        sync.Once
	schedule       *Schedule
	lowerErr       error
}

// SharedKey is the key a run shares a loop-constant (LSE) producer's value
// under with later runs (engine.LSESource): the option's transpose-normalized
// canonical key (chain.CanonicalKey form, e.g. "A'·A") and the producer
// plan's shape signature (costgraph.ProducerSig), with "|f" when the producer
// computes the transposed chain and transposes back — a distinct kernel
// sequence. So two values under one key come from the bitwise-identical
// sequence of kernel executions. "" when the value cannot be shared: it is
// not loop-constant, or its producer reads other options' run-local values.
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
		Config:   cfg,
		Program:  prog,
		plans:    plans,
		Resolver: res,
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
		c.usesRawBody = true
		for _, sp := range plans.Body {
			c.normalizedBody = append(c.normalizedBody, plan.PushDownTranspose(sp.Raw, sym))
		}
	} else {
		for _, root := range plans.SearchRoots() {
			c.normalizedBody = append(c.normalizedBody, plan.Normalize(root, sym))
		}
	}
	coords, err := chain.Extract(c.normalizedBody, res, sym)
	if err != nil {
		return nil, err
	}
	c.Coords = coords
	// The atom caps bound every strategy's statements, searched or run as
	// written: those outside the loop, or all of a loop-free program's.
	var outside []*plan.Node
	for _, sps := range [][]plan.StmtPlan{plans.Pre, plans.Post} {
		for _, sp := range sps {
			if k := sp.Raw.Kind; k != plan.Leaf && k != plan.Const { // a read or a constant: no chain
				outside = append(outside, plan.PushDownTranspose(sp.Raw, sym))
			}
		}
	}
	if _, err := chain.Extract(outside, res, sym); err != nil {
		return nil, err
	}

	found := &search.Result{Coords: coords} // the baselines search for nothing
	if !c.usesRawBody {
		searchStart := time.Now()
		if cfg.Strategy == SPORESLike {
			found = search.SPORES(coords)
		} else if found, err = search.BlockWiseCtx(ctx, coords); err != nil {
			return nil, Canceled("opt: search", err)
		}
		c.Search, c.SearchTime = found, time.Since(searchStart)
	}

	if err := ctx.Err(); err != nil {
		return nil, Canceled("opt: plan", err)
	}
	planStart := time.Now()
	planner, err := costgraph.NewPlanner(ctx, costgraph.Config{
		Model:      cost.NewModel(cfg.Cluster, est),
		Iterations: cfg.Iterations,
	}, found)
	if err != nil {
		return nil, err
	}
	c.Decision, err = selectOptions(planner, cfg)
	if cerr := ctx.Err(); err != nil && cerr != nil {
		return nil, Canceled("opt: plan", cerr)
	}
	if err != nil {
		return nil, err
	}
	c.PlanTime = time.Since(planStart)
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

// selectOptions maps the strategy (and, for Adaptive, the combiner) to its
// selection rule.
func selectOptions(p *costgraph.Planner, cfg Config) (*costgraph.Decision, error) {
	switch cfg.Strategy {
	case NoElimination, Explicit:
		// No options: the decision only orders each block's chain.
		return p.Manual(nil)
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
		return p.Conservative()
	case Aggressive:
		return p.Aggressive()
	case Automatic:
		return p.Automatic()
	case SPORESLike:
		// SPORES is cost-based (equality saturation extracts the cheapest
		// plan from its e-graph), so pick among its sampled options with
		// the prober rather than applying everything.
		return p.Probe()
	case Manual:
		return p.Manual(cfg.ManualKeys)
	}
	return nil, fmt.Errorf("opt: strategy %v does not select options", cfg.Strategy)
}
