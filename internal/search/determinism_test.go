package search

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"remac/internal/sparsity"
)

// optionFingerprint serializes everything plan choice (and the serving
// layer's plan-cache identity) depends on: option keys, kinds, and their
// full occurrence sets in a canonical order.
func optionFingerprint(r *Result) []string {
	var lines []string
	for _, o := range r.Options {
		occs := make([]string, 0, len(o.Occs))
		for _, oc := range o.Occs {
			occs = append(occs, fmt.Sprintf("b%d[%d,%d]f%t", oc.Block, oc.Lo, oc.Hi, oc.Flipped))
		}
		sort.Strings(occs)
		lines = append(lines, fmt.Sprintf("%s|%v|%v", o.Key, o.Kind, occs))
	}
	sort.Strings(lines)
	return lines
}

// TestTreeWiseDeterministicAcrossGOMAXPROCS: the parallel tree-wise search
// must produce the identical option set regardless of worker count —
// otherwise cached plans would depend on goroutine scheduling.
func TestTreeWiseDeterministicAcrossGOMAXPROCS(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	// Shrink the plan budget so the budget (not the wall-clock emergency
	// stop) is what truncates the search, even under -race slowdowns; the
	// deterministic-truncation property is exactly what's under test.
	prevBudget := twPlanBudget
	twPlanBudget = 20000
	defer func() { twPlanBudget = prevBudget }()

	var ref []string
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		fp := optionFingerprint(TreeWise(c, 5*time.Minute))
		if ref == nil {
			ref = fp
			continue
		}
		if len(fp) != len(ref) {
			t.Fatalf("GOMAXPROCS=%d: %d options, reference has %d", procs, len(fp), len(ref))
		}
		for i := range fp {
			if fp[i] != ref[i] {
				t.Errorf("GOMAXPROCS=%d: option %d differs:\n got %s\nwant %s", procs, i, fp[i], ref[i])
			}
		}
	}
}

// TestBlockWiseRepeatable: two runs over the same coordinates agree
// exactly (guards the map-iteration ordering in the options-building pass).
func TestBlockWiseRepeatable(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	a := optionFingerprint(BlockWise(c))
	b := optionFingerprint(BlockWise(c))
	if len(a) != len(b) {
		t.Fatalf("option counts differ across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("option %d differs across identical runs:\n %s\n %s", i, a[i], b[i])
		}
	}
}

// TestGroupOptionsDeterministic: grouped-sum options are numbered, and their
// occurrences ordered, by the program — not by map iteration. Option IDs
// index the planner's selection vector and Occs[0], Occs[1] are the pair
// whose production is priced, so a listing that varied between identical
// compilations would vary the plan.
func TestGroupOptionsDeterministic(t *testing.T) {
	src := `
P = read("P")
Q = read("Q")
X = read("X")
Y = read("Y")
Z = read("Z")
R1 = P %*% X %*% Y + P %*% Y %*% Z
R2 = X %*% Y %*% Q + Y %*% Z %*% Q
R3 = Q %*% X %*% P + Q %*% Z %*% P
R4 = X %*% P %*% Y + Z %*% P %*% Y
R5 = Y %*% X %*% P + Y %*% Z %*% P
`
	sq := sparsity.MetaDims(10, 10, 1)
	c := coordsFor(t, src, res{"P": sq, "Q": sq, "X": sq, "Y": sq, "Z": sq})
	listing := func() string {
		var lines []string
		groups := 0
		for _, o := range BlockWise(c).Options {
			if o.Kind == CSEGroup {
				groups++
			}
			lines = append(lines, fmt.Sprintf("%d|%s|%v|%v", o.ID, o.Key, o.Kind, o.Occs))
		}
		if groups < 2 {
			t.Fatalf("program should yield two grouped sums, found %d", groups)
		}
		return strings.Join(lines, "\n")
	}
	want := listing()
	for run := 1; run < 200; run++ {
		if got := listing(); got != want {
			t.Fatalf("run %d lists the options differently:\n%s\n--- first run ---\n%s", run, got, want)
		}
	}
}
