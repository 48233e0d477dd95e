package remac_test

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design decisions DESIGN.md calls out. The
// figure benches regenerate the full experiment each iteration (Go picks
// b.N=1 for the heavy ones); the ablations isolate single mechanisms.

import (
	"fmt"
	"testing"
	"time"

	"remac"
	"remac/internal/bench"
	"remac/internal/chain"
	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/search"
	"remac/internal/sparsity"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DatasetStats regenerates Table 2.
func BenchmarkTable2DatasetStats(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig3Distributed regenerates Fig 3(a): DFP elimination choices on
// the distributed cluster.
func BenchmarkFig3Distributed(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3SingleNode regenerates Fig 3(b).
func BenchmarkFig3SingleNode(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig8aSearch regenerates Fig 8(a): compilation time of the four
// searches.
func BenchmarkFig8aSearch(b *testing.B) { runExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Fig 8(b): execution under automatic
// elimination vs the SystemDS and SPORES baselines.
func BenchmarkFig8b(b *testing.B) { runExperiment(b, "fig8b") }

// BenchmarkFig9 regenerates Fig 9: conservative/aggressive/adaptive.
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10aPlanGen regenerates Fig 10(a): DP vs Enum × MD vs MNC
// compilation time.
func BenchmarkFig10aPlanGen(b *testing.B) { runExperiment(b, "fig10a") }

// BenchmarkFig10bElapsed regenerates Fig 10(b).
func BenchmarkFig10bElapsed(b *testing.B) { runExperiment(b, "fig10b") }

// BenchmarkFig11 regenerates Fig 11: SystemDS vs pbdR vs SciDB vs ReMac.
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig 12: the DFP phase breakdown across skew.
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Fig 13: work balance across skew.
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// --- Ablations -----------------------------------------------------------

// syntheticChain builds one block of n atoms (alternating loop-constant
// dataset references and iteration vectors) for search ablations.
func syntheticChain(n int) *chain.Coordinates {
	atoms := make([]chain.Atom, n)
	for i := range atoms {
		sym := string(rune('A' + i%4))
		atoms[i] = chain.Atom{Sym: sym, T: i%3 == 0, LoopConst: i%4 < 2, Coord: i + 1}
	}
	return &chain.Coordinates{Blocks: []*chain.Block{{ID: 0, Atoms: atoms, Group: 1}}, NAtoms: n}
}

type ablationResolver struct{}

func (ablationResolver) MetaFor(string) (sparsity.Meta, bool) {
	return sparsity.MetaDims(64, 64, 1), true
}
func (ablationResolver) IsSymmetric(string) bool { return false }

// BenchmarkAblationSearch compares the block-wise search against tree-wise
// and SPORES on growing chain lengths — the complexity separation that
// motivates §3.2.
func BenchmarkAblationSearch(b *testing.B) {
	for _, n := range []int{6, 9, 12} {
		coords := syntheticChain(n)
		b.Run(fmt.Sprintf("block-wise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.BlockWise(coords)
			}
		})
		b.Run(fmt.Sprintf("tree-wise/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.TreeWise(coords, 10*time.Second)
			}
		})
		b.Run(fmt.Sprintf("spores/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.SPORES(coords)
			}
		})
	}
}

// BenchmarkAblationTransposeKeys measures the canonical-key normalization:
// with it, windows hidden by transposition collide in the hash table; the
// bench isolates the key computation itself.
func BenchmarkAblationTransposeKeys(b *testing.B) {
	atoms := []chain.Atom{
		{Sym: "d", T: true}, {Sym: "A", T: true}, {Sym: "A"}, {Sym: "H", Symm: true},
	}
	b.Run("canonical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.CanonicalKey(atoms)
		}
	})
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chain.SpanKey(atoms)
		}
	})
}

// BenchmarkAblationCostModel measures one operator cost evaluation — the
// unit the building/probing phases multiply by thousands.
func BenchmarkAblationCostModel(b *testing.B) {
	m := cost.NewModel(cluster.DefaultConfig(), sparsity.Metadata{})
	a := sparsity.MetaDims(58_400_000, 8_700, 4.5e-3)
	v := sparsity.MetaDims(8_700, 1, 1)
	b.Run("mul-bmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Mul(a, v, false, true)
		}
	})
	at := sparsity.MetaDims(8_700, 58_400_000, 4.5e-3)
	b.Run("mul-cpmm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Mul(at, a, false, false)
		}
	})
}

// BenchmarkAblationEstimators compares the per-operator cost of the MD and
// MNC estimators — the efficiency side of Fig 10's accuracy/efficiency
// trade-off.
func BenchmarkAblationEstimators(b *testing.B) {
	rowCounts := make([]int, 2000)
	colCounts := make([]int, 870)
	for i := range rowCounts {
		rowCounts[i] = 4 + i%7
	}
	for i := range colCounts {
		colCounts[i] = 9 + i%5
	}
	rows, cols := sparsity.NewCounts(rowCounts), sparsity.NewCounts(colCounts)
	a := sparsity.Meta{Rows: 58_400_000, Cols: 8_700, Sparsity: 4.5e-3, RowCounts: rows, ColCounts: cols}
	at := sparsity.Meta{Rows: 8_700, Cols: 58_400_000, Sparsity: 4.5e-3, RowCounts: cols, ColCounts: rows}
	b.Run("MD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsity.Metadata{}.Mul(at, a)
		}
	})
	b.Run("MNC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparsity.MNC{}.Mul(at, a)
		}
	})
}

// BenchmarkAblationEnumCutoff measures enumeration cost at growing
// combination budgets against the DP prober — the Fig 10 separation at the
// mechanism level.
func BenchmarkAblationEnumCutoff(b *testing.B) {
	ds, err := remac.LoadDataset("cri2")
	if err != nil {
		b.Fatal(err)
	}
	inputs, err := ds.Inputs("DFP")
	if err != nil {
		b.Fatal(err)
	}
	script, err := remac.WorkloadScript("DFP", 15)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := remac.Compile(script, inputs, remac.Config{
				Strategy: remac.Adaptive, Combiner: remac.DP, Iterations: 15,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, budget := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("EnumDFS/budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := remac.Compile(script, inputs, remac.Config{
					Strategy: remac.Adaptive, Combiner: remac.EnumDFS,
					EnumMaxCombos: budget, Iterations: 15,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVirtualScale compares compilation at paper-scale virtual
// dimensions against the raw materialized dimensions: the plan decisions
// (and hence costs) differ because intermediate fill-in depends on absolute
// size — the rationale for the virtual-dimension substitution in DESIGN.md.
func BenchmarkAblationVirtualScale(b *testing.B) {
	ds, err := remac.LoadDataset("cri2")
	if err != nil {
		b.Fatal(err)
	}
	script, err := remac.WorkloadScript("DFP", 15)
	if err != nil {
		b.Fatal(err)
	}
	virtual, err := ds.Inputs("DFP")
	if err != nil {
		b.Fatal(err)
	}
	actual := map[string]remac.Input{}
	for name, in := range virtual {
		actual[name] = remac.Input{Data: in.Data} // no virtual dims
	}
	for _, variant := range []struct {
		name   string
		inputs map[string]remac.Input
	}{{"virtual", virtual}, {"actual", actual}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := remac.Compile(script, variant.inputs, remac.Config{
					Strategy: remac.Adaptive, Iterations: 15,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
