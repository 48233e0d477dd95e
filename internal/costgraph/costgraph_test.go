package costgraph

import (
	"context"
	"strings"
	"testing"
	"time"

	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/lang"
	"remac/internal/plan"
	"remac/internal/search"
	"remac/internal/sparsity"
)

type res map[string]sparsity.Meta

func (r res) MetaFor(sym string) (sparsity.Meta, bool) {
	m, ok := r[strings.SplitN(sym, "#", 2)[0]]
	return m, ok
}
func (r res) IsSymmetric(string) bool { return false }

const dfpSrc = `
#@symmetric H
A = read("A")
b = read("b")
H = read("H")
x = read("x")
i = 0
while (i < 15) {
    g = t(A) %*% (A %*% x - b)
    d = H %*% g
    H = H - (H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H) / as.scalar(t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + (d %*% t(d)) / as.scalar(2 * (t(d) %*% t(A) %*% A %*% d))
    x = x - 0.1 * d
    i = i + 1
}
`

// tallResolver mimics cri1: tall, few columns, dense — where the paper
// finds the LSE of AᵀA strongly beneficial.
func tallResolver() res {
	return res{
		"A": sparsity.MetaDims(116_800_000, 47, 0.6),
		"b": sparsity.MetaDims(116_800_000, 1, 1),
		"H": sparsity.MetaDims(47, 47, 1),
		"x": sparsity.MetaDims(47, 1, 1),
		"g": sparsity.MetaDims(47, 1, 1),
		"i": sparsity.MetaDims(1, 1, 1),
	}
}

// fatResolver mimics cri3: many columns, sparse — where the LSE of AᵀA is
// detrimental (AᵀA is 15K×15K and costly to build and use).
func fatResolver() res {
	return res{
		"A": sparsity.MetaDims(58_400_000, 15_000, 2.6e-3),
		"b": sparsity.MetaDims(58_400_000, 1, 1),
		"H": sparsity.MetaDims(15_000, 15_000, 1),
		"x": sparsity.MetaDims(15_000, 1, 1),
		"g": sparsity.MetaDims(15_000, 1, 1),
		"i": sparsity.MetaDims(1, 1, 1),
	}
}

func searchedDFP(t *testing.T, r res) *search.Result {
	t.Helper()
	return searched(t, dfpSrc, r)
}

func searched(t testing.TB, src string, r res) *search.Result {
	t.Helper()
	plans, err := plan.Build(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	sym := plan.SymTable(plans.Symmetric)
	var roots []*plan.Node
	for _, root := range plans.SearchRoots() {
		roots = append(roots, plan.Normalize(root, sym))
	}
	c, err := chain.Extract(roots, r, sym)
	if err != nil {
		t.Fatal(err)
	}
	return search.BlockWise(c, sparsity.Metadata{})
}

func plannerFor(t *testing.T, r res) *Planner {
	t.Helper()
	cfg := Config{
		Model:      cost.NewModel(cluster.DefaultConfig(), sparsity.Metadata{}),
		Iterations: 15,
	}
	p, err := NewPlanner(context.Background(), cfg, searchedDFP(t, r))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Model: nil, Iterations: 10},
		{Model: cost.NewModel(cluster.DefaultConfig(), nil), Iterations: 0},
	}
	for i, cfg := range cases {
		if _, err := NewPlanner(context.Background(), cfg, &search.Result{Coords: &chain.Coordinates{}}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestEvaluateBaseline(t *testing.T) {
	p := plannerFor(t, tallResolver())
	sel := make([]bool, len(p.Options()))
	total, plans, producers, err := p.Evaluate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("baseline cost must be positive")
	}
	if len(producers) != 0 {
		t.Fatal("no producers with empty selection")
	}
	if len(plans) != len(p.coords.Blocks) {
		t.Fatalf("plans = %d, blocks = %d", len(plans), len(p.coords.Blocks))
	}
	// Selection length mismatch must error.
	if _, _, _, err := p.Evaluate(make([]bool, 1)); err == nil {
		t.Fatal("bad selection length accepted")
	}
}

func TestSingleOptionChangesCost(t *testing.T) {
	p := plannerFor(t, tallResolver())
	sel := make([]bool, len(p.Options()))
	base, _, _, _ := p.Evaluate(sel)
	changed := false
	for i := range p.Options() {
		sel[i] = true
		c, _, _, err := p.Evaluate(sel)
		sel[i] = false
		if err != nil {
			t.Fatalf("option %s: %v", p.Options()[i].Key, err)
		}
		if c != base {
			changed = true
		}
	}
	if !changed {
		t.Fatal("no option changes the modelled cost")
	}
}

func TestProbeImprovesOverBaseline(t *testing.T) {
	p := plannerFor(t, tallResolver())
	_, base, err := p.BaselineTrees()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalCost > base {
		t.Fatalf("probe cost %g exceeds baseline %g", d.TotalCost, base)
	}
	if len(d.Selected) == 0 {
		t.Fatal("probe selected nothing on the tall dataset; the AᵀA LSE should win")
	}
	// Selected options must be pairwise compatible.
	for i := 0; i < len(d.Selected); i++ {
		for j := i + 1; j < len(d.Selected); j++ {
			if search.Conflicts(d.Selected[i], d.Selected[j]) {
				t.Fatal("probe selected contradictory options")
			}
		}
	}
}

func TestProbeSelectsATAOnTallRejectsOnFat(t *testing.T) {
	// The paper's central adaptive finding (Fig 9): the LSE of AᵀA wins on
	// tall datasets (cri1/red1) and is detrimental on fat ones (cri3/red3).
	atAKey := chain.CanonicalKey([]chain.Atom{{Sym: "A", T: true}, {Sym: "A"}})

	tall, err := plannerFor(t, tallResolver()).Probe()
	if err != nil {
		t.Fatal(err)
	}
	if !containsKey(tall.Keys(), atAKey) {
		t.Errorf("tall dataset: AᵀA not selected; selected = %v", tall.Keys())
	}

	fat, err := plannerFor(t, fatResolver()).Probe()
	if err != nil {
		t.Fatal(err)
	}
	if containsKey(fat.Keys(), atAKey) {
		t.Errorf("fat dataset: detrimental AᵀA selected; selected = %v", fat.Keys())
	}
}

func containsKey(keys []string, k string) bool {
	for _, key := range keys {
		if key == k {
			return true
		}
	}
	return false
}

func TestProbeDeterministic(t *testing.T) {
	d1, err := plannerFor(t, tallResolver()).Probe()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := plannerFor(t, tallResolver()).Probe()
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := d1.Keys(), d2.Keys()
	if len(k1) != len(k2) {
		t.Fatalf("non-deterministic selection: %v vs %v", k1, k2)
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("non-deterministic selection: %v vs %v", k1, k2)
		}
	}
}

func TestEnumerateAtLeastAsGoodAsProbe(t *testing.T) {
	p := plannerFor(t, tallResolver())
	probe, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	enum, err := p.Enumerate(DFS, EnumBudget{MaxCombos: 200_000, Deadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Enumeration explores a superset of the greedy path over useful
	// options; within budget it must not be worse by more than noise.
	if enum.TotalCost > probe.TotalCost*1.001 {
		t.Fatalf("enum cost %g worse than probe %g", enum.TotalCost, probe.TotalCost)
	}
	// And the DP must be dramatically cheaper in evaluations.
	if probe.Evaluated >= enum.Evaluated {
		t.Fatalf("probe evaluated %d combos, enum %d; DP should be cheaper", probe.Evaluated, enum.Evaluated)
	}
}

func TestEnumerateBFSMatchesDFSWithinBudget(t *testing.T) {
	p := plannerFor(t, tallResolver())
	dfs, err := p.Enumerate(DFS, EnumBudget{MaxCombos: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := p.Enumerate(BFS, EnumBudget{MaxCombos: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	// Same search space, different order: best costs should agree closely.
	ratio := dfs.TotalCost / bfs.TotalCost
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("DFS %g vs BFS %g diverge", dfs.TotalCost, bfs.TotalCost)
	}
}

func TestEnumerateRespectsBudget(t *testing.T) {
	p := plannerFor(t, tallResolver())
	d, err := p.Enumerate(DFS, EnumBudget{MaxCombos: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The filter phase alone evaluates each option once; the budget caps
	// the total.
	if d.Evaluated > len(p.Options())+20 {
		t.Fatalf("budget ignored: %d evaluations", d.Evaluated)
	}
}

func TestBlockPlanTreeShape(t *testing.T) {
	p := plannerFor(t, tallResolver())
	d, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range d.BlockPlans {
		if bp.Root == nil {
			t.Fatal("nil root")
		}
		// Every interior node spans its children contiguously.
		bp.Root.Walk(func(n *OpNode) {
			if n.L != nil && n.R != nil {
				if n.L.Lo != n.Lo || n.R.Hi != n.Hi || n.L.Hi+1 > n.R.Lo {
					// Reuse leaves contract spans; children must tile.
					if n.L.Hi >= n.R.Lo {
						t.Fatalf("children overlap: [%d,%d] [%d,%d]", n.L.Lo, n.L.Hi, n.R.Lo, n.R.Hi)
					}
				}
			}
		})
	}
}

func TestProducersChargedOnceAndAmortized(t *testing.T) {
	p := plannerFor(t, tallResolver())
	d, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, pp := range d.Producers {
		if pp.Cost <= 0 {
			t.Errorf("producer %s has non-positive cost", pp.Option.Key)
		}
		switch pp.Option.Kind {
		case search.LSE:
			want := pp.Cost / 15
			if diff := pp.Charged - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("LSE %s charged %g, want %g (cost/iterations)", pp.Option.Key, pp.Charged, want)
			}
		case search.CSE:
			if pp.Charged != pp.Cost {
				t.Errorf("CSE %s charged %g, want full producer cost %g once per iteration", pp.Option.Key, pp.Charged, pp.Cost)
			}
		}
	}
}

func TestBaselineTrees(t *testing.T) {
	p := plannerFor(t, tallResolver())
	plans, total, err := p.BaselineTrees()
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || len(plans) == 0 {
		t.Fatal("baseline trees missing")
	}
	for _, bp := range plans {
		bp.Root.Walk(func(n *OpNode) {
			if n.ReuseOf != nil {
				t.Fatal("baseline tree contains reuse nodes")
			}
		})
	}
}

func TestEnumModeString(t *testing.T) {
	if DFS.String() != "DFS" || BFS.String() != "BFS" {
		t.Fatal("mode names changed")
	}
}
