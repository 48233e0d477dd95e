package bench

import (
	"fmt"
	"time"

	"remac/internal/algorithms"
	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/opt"
	"remac/internal/plan"
	"remac/internal/search"
)

// Fig3 reproduces the motivation experiment: SystemDS on DFP with
// different elimination choices, in the distributed (a) or single-node (b)
// setting. Bars: no CSE/LSE, explicit, a contradictory (suboptimal)
// combination, the specific {AᵀA, ddᵀ} pair, and the efficient combination.
func Fig3(singleNode bool) (*Table, error) {
	cfg := cluster.DefaultConfig()
	title := "SystemDS on DFP (distributed)"
	if singleNode {
		cfg = cluster.SingleNodeConfig()
		title = "SystemDS on DFP (single node)"
	}
	t := &Table{ID: figID("Fig 3", singleNode), Title: title, Columns: []string{"exec(s)"}}

	// The ddᵀ span after d = Hg inlining is H·g·g'·H; AᵀA is A'·A.
	ataDDT := []string{"A'·A", "H·g·g'·H"}
	// A contradictory pick: the H·AᵀA·H sandwich conflicts with the
	// efficient AᵀAHg vector chains, forcing matrix-shaped reuse.
	contradictory := []string{"H·A'·A·H", "A'·A"}

	bars := []struct {
		label string
		cfg   runCfg
	}{
		{"no CSE/LSE", runCfg{strategy: opt.NoElimination}},
		{"explicit", runCfg{strategy: opt.Explicit}},
		{"contradictory", runCfg{strategy: opt.Manual, manualKeys: contradictory}},
		{"ATA, ddT", runCfg{strategy: opt.Manual, manualKeys: ataDDT}},
		{"efficient", runCfg{strategy: opt.Adaptive}},
	}
	for _, bar := range bars {
		c := bar.cfg
		c.alg = algorithms.DFP
		c.dataset = "cri2"
		c.cluster = cfg
		out, err := runOne(c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Label: bar.label, Values: map[string]float64{"exec(s)": out.ExecSec}})
	}
	return t, nil
}

func figID(base string, b bool) string {
	if b {
		return base + "(b)"
	}
	return base + "(a)"
}

// searchCoords builds the inlined, normalized coordinates for a workload on
// cri2, as the searches consume them.
func searchCoords(alg algorithms.Name) (*chain.Coordinates, error) {
	_, metas, err := inputsFor(alg, "cri2")
	if err != nil {
		return nil, err
	}
	prog := algorithms.MustProgram(alg, algorithms.DefaultIterations(alg))
	// Reuse opt's resolver construction by compiling with NoElimination and
	// re-deriving roots.
	compiled, err := opt.Compile(prog, metas, opt.Config{
		Strategy: opt.Adaptive, Cluster: cluster.DefaultConfig(),
		Iterations: algorithms.DefaultIterations(alg),
	})
	if err != nil {
		return nil, err
	}
	return compiled.Coords, nil
}

// Fig8a compares the compilation time to find CSE and LSE: stock SystemDS
// (explicit detection only), the tree-wise exhaustive search, the
// block-wise search, and SPORES (on partial DFP, the longest subexpression
// it supports).
func Fig8a() (*Table, error) {
	t := &Table{ID: "Fig 8(a)", Title: "Compilation time to find CSE and LSE (milliseconds)",
		Columns: []string{"SystemDS", "tree-wise", "block-wise", "SPORES"}}
	const treeWiseDeadline = 3 * time.Second
	t.Notes = append(t.Notes, fmt.Sprintf(
		"tree-wise capped at %v (the paper measured >8 hours on DFP and BFGS); '>cap' marks a timeout", treeWiseDeadline))

	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS, algorithms.GD, algorithms.PartialDFP} {
		coords, err := searchCoords(alg)
		if err != nil {
			return nil, err
		}
		row := Row{Label: string(alg), Values: map[string]float64{}, Text: map[string]string{}}

		// SystemDS: identical-subtree detection over the raw statement trees.
		prog := algorithms.MustProgram(alg, algorithms.DefaultIterations(alg))
		plans, err := plan.Build(prog)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var roots []*plan.Node
		for _, sp := range plans.Body {
			roots = append(roots, sp.Raw)
		}
		if len(roots) == 0 {
			for _, sp := range plans.Pre {
				roots = append(roots, sp.Raw)
			}
		}
		plan.ExplicitCSEKeys(roots)
		row.Values["SystemDS"] = float64(time.Since(start).Microseconds()) / 1000

		bw := search.BlockWise(coords)
		row.Values["block-wise"] = float64(bw.Elapsed.Microseconds()) / 1000

		tw := search.TreeWise(coords, treeWiseDeadline)
		if tw.TimedOut {
			row.Text["tree-wise"] = ">cap"
		} else {
			row.Values["tree-wise"] = float64(tw.Elapsed.Microseconds()) / 1000
		}

		if alg == algorithms.PartialDFP {
			sp := search.SPORES(coords)
			row.Values["SPORES"] = float64(sp.Elapsed.Microseconds()) / 1000
		} else {
			row.Text["SPORES"] = "n/a"
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "SPORES does not support running DFP, BFGS or GD entirely (§6.2.1)")
	return t, nil
}

// Fig8b compares execution time (input partition excluded, like the paper's
// pre-partitioned measurements): SystemDS with elimination disabled
// (SystemDS*), stock SystemDS, automatic elimination, and SPORES.
func Fig8b() (*Table, error) {
	t := &Table{ID: "Fig 8(b)", Title: "Execution time other than compilation (seconds)",
		Columns: []string{"SystemDS*", "SystemDS", "automatic", "SPORES"}}
	systems := []struct {
		col string
		s   opt.Strategy
	}{
		{"SystemDS*", opt.NoElimination},
		{"SystemDS", opt.Explicit},
		{"automatic", opt.Automatic},
		{"SPORES", opt.SPORESLike},
	}
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS, algorithms.GD, algorithms.PartialDFP} {
		for _, dsName := range data.Names {
			row := Row{Label: fmt.Sprintf("%s/%s", alg, dsName), Values: map[string]float64{}}
			for _, sys := range systems {
				out, err := runOne(runCfg{alg: alg, dataset: dsName, strategy: sys.s})
				if err != nil {
					return nil, err
				}
				row.Values[sys.col] = out.ExecSec
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig9 is the overall adaptive-elimination comparison: SystemDS,
// conservative, aggressive, adaptive across DFP, BFGS and GD.
func Fig9() (*Table, error) {
	t := &Table{ID: "Fig 9", Title: "Overall performance with different CSE and LSE (seconds)",
		Columns: []string{"SystemDS", "conservative", "aggressive", "adaptive"}}
	systems := []struct {
		col string
		s   opt.Strategy
	}{
		{"SystemDS", opt.Explicit},
		{"conservative", opt.Conservative},
		{"aggressive", opt.Aggressive},
		{"adaptive", opt.Adaptive},
	}
	for _, alg := range []algorithms.Name{algorithms.DFP, algorithms.BFGS, algorithms.GD} {
		for _, dsName := range data.Names {
			row := Row{Label: fmt.Sprintf("%s/%s", alg, dsName), Values: map[string]float64{}}
			for _, sys := range systems {
				out, err := runOne(runCfg{alg: alg, dataset: dsName, strategy: sys.s})
				if err != nil {
					return nil, err
				}
				row.Values[sys.col] = out.ExecSec
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// OptionCensus reports the number of elimination options the block-wise
// search finds per workload (the paper counts 1391 for DFP).
func OptionCensus() (*Table, error) {
	t := &Table{ID: "§2.1", Title: "CSE/LSE options found by the block-wise search",
		Columns: []string{"options", "CSE", "LSE", "group"}}
	for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP, algorithms.BFGS, algorithms.GNMF} {
		coords, err := searchCoords(alg)
		if err != nil {
			return nil, err
		}
		r := search.BlockWise(coords)
		row := Row{Label: string(alg), Values: map[string]float64{
			"options": float64(len(r.Options)),
		}}
		for _, o := range r.Options {
			switch o.Kind {
			case search.CSE:
				row.Values["CSE"]++
			case search.LSE:
				row.Values["LSE"]++
			default:
				row.Values["group"]++
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
