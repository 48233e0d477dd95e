package costgraph

import (
	"context"
	"math/rand"
	"testing"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/search"
	"remac/internal/sparsity"
)

// Property tests of the planner invariants the probing correctness rests
// on. They run on the DFP cost graph with randomized selections.

func randomCompatibleSelection(p *Planner, rng *rand.Rand) []bool {
	sel := make([]bool, len(p.options))
	order := rng.Perm(len(sel))
	for _, i := range order {
		if rng.Float64() < 0.4 && p.compatibleWith(sel, i) {
			sel[i] = true
		}
	}
	return sel
}

func TestPropEvaluateDeterministic(t *testing.T) {
	p := plannerFor(t, tallResolver())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		sel := randomCompatibleSelection(p, rng)
		c1, err := p.EvaluateCost(sel)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := p.EvaluateCost(sel)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Fatalf("EvaluateCost not deterministic: %g vs %g", c1, c2)
		}
	}
}

func TestPropEvaluateMatchesFullEvaluate(t *testing.T) {
	// The memoized cost-only path must agree with the tree-materializing
	// path (same DP, same producers).
	p := plannerFor(t, tallResolver())
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		sel := randomCompatibleSelection(p, rng)
		fast, err := p.EvaluateCost(sel)
		if err != nil {
			t.Fatal(err)
		}
		full, _, _, err := p.Evaluate(sel)
		if err != nil {
			t.Fatal(err)
		}
		if diff := fast - full; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("EvaluateCost %g != Evaluate %g", fast, full)
		}
	}
}

func TestPropProbeNotWorseThanRandomSelections(t *testing.T) {
	p := plannerFor(t, fatResolver())
	probe, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		sel := randomCompatibleSelection(p, rng)
		c, err := p.EvaluateCost(sel)
		if err != nil {
			t.Fatal(err)
		}
		if c < probe.TotalCost*0.999 {
			keys := []string{}
			for i, s := range sel {
				if s {
					keys = append(keys, p.options[i].Key)
				}
			}
			t.Fatalf("random selection %v (cost %g) beats the probe (%g)", keys, c, probe.TotalCost)
		}
	}
}

func TestPropProducerNestingTerminates(t *testing.T) {
	// With everything compatible selected, producer evaluation recurses
	// through nested reuses; it must terminate and stay positive.
	p := plannerFor(t, tallResolver())
	sel := make([]bool, len(p.options))
	for i := range sel {
		if p.compatibleWith(sel, i) && p.options[i].Kind != search.CSEGroup {
			sel[i] = true
		}
	}
	c, err := p.EvaluateCost(sel)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("cost %g", c)
	}
}

func TestPropBlockPlansTileTheChains(t *testing.T) {
	p := plannerFor(t, tallResolver())
	d, err := p.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, bp := range d.BlockPlans {
		// Leaves (atoms + reuses) must tile [0, len-1] without gaps.
		covered := make([]bool, bp.Block.Len())
		bp.Root.Walk(func(n *OpNode) {
			if n.L == nil && n.R == nil {
				for i := n.Lo; i <= n.Hi; i++ {
					if covered[i] {
						t.Fatalf("block %d: atom %d covered twice", bp.Block.ID, i)
					}
					covered[i] = true
				}
			}
		})
		for i, c := range covered {
			if !c {
				t.Fatalf("block %d: atom %d not covered", bp.Block.ID, i)
			}
		}
	}
}

// TestGroupProducerCostTracksBothMembers: a grouped sum's producer contracts
// selected spans inside both of its member blocks, so its memoized charge
// must not survive a selection change in the second member.
func TestGroupProducerCostTracksBothMembers(t *testing.T) {
	src := `
P = read("P")
Q = read("Q")
V = read("V")
W = read("W")
X = read("X")
Y = read("Y")
Z = read("Z")
R1 = P %*% X %*% Y %*% W + P %*% Y %*% Z %*% V
R2 = X %*% Y %*% W %*% Q + Y %*% Z %*% V %*% Q
`
	sq := sparsity.MetaDims(2000, 2000, 1)
	p, err := NewPlanner(context.Background(), Config{
		Model:      cost.NewModel(cluster.DefaultConfig(), sparsity.Metadata{}),
		Iterations: 1,
	}, searched(t, src, res{"P": sq, "Q": sq, "V": sq, "W": sq, "X": sq, "Y": sq, "Z": sq}))
	if err != nil {
		t.Fatal(err)
	}
	group, nested := -1, -1
	for i, o := range p.options {
		switch {
		case o.Kind == search.CSEGroup && o.Key == "(X·Y·W + Y·Z·V)":
			group = i
		case o.Key == "Y·Z":
			nested = i
		}
	}
	if group < 0 || nested < 0 {
		t.Fatalf("options not found (group %d, nested %d)", group, nested)
	}
	sel := make([]bool, len(p.options))
	sel[group] = true
	if _, err := p.EvaluateCost(sel); err != nil { // fills the producer memo
		t.Fatal(err)
	}
	sel[nested] = true
	fast, err := p.EvaluateCost(sel)
	if err != nil {
		t.Fatal(err)
	}
	full, _, _, err := p.Evaluate(sel)
	if err != nil {
		t.Fatal(err)
	}
	if fast != full {
		t.Fatalf("EvaluateCost %g != Evaluate %g after selecting a span of the second member", fast, full)
	}
}
