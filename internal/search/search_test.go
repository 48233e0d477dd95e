package search

import (
	"strings"
	"testing"
	"time"

	"remac/internal/chain"
	"remac/internal/lang"
	"remac/internal/plan"
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
while (i < 3) {
    g = t(A) %*% (A %*% x - b)
    d = H %*% g
    H = H - (H %*% t(A) %*% A %*% d %*% t(d) %*% t(A) %*% A %*% H) / as.scalar(t(d) %*% t(A) %*% A %*% H %*% t(A) %*% A %*% d) + (d %*% t(d)) / as.scalar(2 * (t(d) %*% t(A) %*% A %*% d))
    x = x - 0.1 * d
    i = i + 1
}
`

func dfpResolver() res {
	return res{
		"A": sparsity.MetaDims(1000, 50, 0.1),
		"b": sparsity.MetaDims(1000, 1, 1),
		"H": sparsity.MetaDims(50, 50, 1),
		"x": sparsity.MetaDims(50, 1, 1),
		"i": sparsity.MetaDims(1, 1, 1),
	}
}

func coordsFor(t *testing.T, src string, r res) *chain.Coordinates {
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
	return c
}

func TestBlockWiseFindsATALSE(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	if len(r.Options) == 0 {
		t.Fatal("no options found")
	}
	// The headline implicit LSE of the paper: AᵀA.
	atA := r.OptionByKey(chain.CanonicalKey([]chain.Atom{{Sym: "A", T: true}, {Sym: "A"}}))
	if atA == nil {
		t.Fatalf("AᵀA option not found; options:\n%s", dumpOptions(r))
	}
	if atA.Kind != LSE {
		t.Errorf("AᵀA should be an LSE option (A is loop-constant), got %v", atA.Kind)
	}
	if len(atA.Occs) < 2 {
		t.Errorf("AᵀA occurs many times in DFP, got %d", len(atA.Occs))
	}
}

func TestBlockWiseFindsImplicitCSEHiddenByTranspose(t *testing.T) {
	// dᵀAᵀA = (AᵀAd)ᵀ — the Figure 2(b) case. With d inlined as H·g our
	// atoms differ, but the same effect shows on AᵀAH vs HAᵀA (H
	// symmetric): both must map to one option key.
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	k1 := chain.CanonicalKey([]chain.Atom{{Sym: "A", T: true}, {Sym: "A"}, {Sym: "H", Symm: true}})
	k2 := chain.CanonicalKey([]chain.Atom{{Sym: "H", Symm: true}, {Sym: "A", T: true}, {Sym: "A"}})
	if k1 != k2 {
		t.Fatalf("canonical keys differ: %q vs %q", k1, k2)
	}
	if r.OptionByKey(k1) == nil {
		t.Fatalf("AᵀAH option missing:\n%s", dumpOptions(r))
	}
}

func TestBlockWiseDFPOptionCount(t *testing.T) {
	// The paper counts 1391 CSE/LSE options for the whole DFP algorithm,
	// counting raw candidates; our census deduplicates by canonical key
	// (every occurrence set is one option), so the count is far smaller
	// but must still cover the full window space (Visited tracks the raw
	// candidate windows).
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	if len(r.Options) < 10 {
		t.Fatalf("option count = %d, expected at least the dozen distinct DFP redundancies", len(r.Options))
	}
	if r.Visited < 100 {
		t.Fatalf("visited %d windows, expected the full sliding-window space", r.Visited)
	}
}

func TestLSEDominatesCSEForLoopConstantSpans(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	for _, o := range r.Options {
		if o.Kind != CSE {
			continue
		}
		for _, a := range o.Atoms {
			if !a.LoopConst {
				goto next
			}
		}
		t.Errorf("option %s is fully loop-constant but emitted as CSE", o.Key)
	next:
	}
}

func TestConflictsPartialOverlap(t *testing.T) {
	// AᵀA at [0,1] and Ad at [1,2] in block 0: contradiction (§2.2).
	o1 := &Option{Key: "A'·A", Occs: []Occurrence{{Block: 0, Lo: 0, Hi: 1}}}
	o2 := &Option{Key: "A·d", Occs: []Occurrence{{Block: 0, Lo: 1, Hi: 2}}}
	if !Conflicts(o1, o2) {
		t.Fatal("partial overlap must conflict")
	}
	// Nested spans are compatible: AᵀA inside AᵀAd.
	o3 := &Option{Key: "A'·A·d", Occs: []Occurrence{{Block: 0, Lo: 0, Hi: 2}}}
	if Conflicts(o1, o3) {
		t.Fatal("nested spans must not conflict")
	}
	// Disjoint spans are compatible.
	o4 := &Option{Key: "X·Y", Occs: []Occurrence{{Block: 0, Lo: 3, Hi: 4}}}
	if Conflicts(o1, o4) {
		t.Fatal("disjoint spans must not conflict")
	}
	// Different blocks never conflict.
	o5 := &Option{Key: "A·d", Occs: []Occurrence{{Block: 1, Lo: 1, Hi: 2}}}
	if Conflicts(o1, o5) {
		t.Fatal("different blocks must not conflict")
	}
}

func TestConflictMatrixSymmetric(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	m := ConflictMatrix(r.Options)
	conflicts := 0
	for i := range m {
		if m[i][i] {
			t.Fatal("option conflicts with itself")
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatal("conflict matrix asymmetric")
			}
			if m[i][j] {
				conflicts++
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("DFP has contradictory options (AᵀA vs Ad); none detected")
	}
}

func TestDFPHasTheContradiction(t *testing.T) {
	// §2.2: the LSE of AᵀA and the CSE of A·(Hg) contradict.
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	atA := r.OptionByKey("A'·A")
	if atA == nil {
		t.Skip("AᵀA canonical key differs")
	}
	found := false
	for _, o := range r.Options {
		if o != atA && Conflicts(atA, o) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("AᵀA conflicts with nothing; expected the Ad-style contradiction")
	}
}

func TestOverlappingOccurrencesOfSameKeyFiltered(t *testing.T) {
	// In A·A·A the key A·A occurs at [0,1] and [1,2]; only one usable.
	src := `
A = read("A")
y = A %*% A %*% A %*% A
`
	r := res{"A": sparsity.MetaDims(10, 10, 1)}
	c := coordsFor(t, src, r)
	result := BlockWise(c, sparsity.Metadata{})
	aa := result.OptionByKey("A·A")
	if aa == nil {
		t.Fatal("A·A option missing")
	}
	if len(aa.Occs) != 2 {
		t.Fatalf("A·A·A·A should yield 2 disjoint A·A occurrences, got %d", len(aa.Occs))
	}
	for _, o := range aa.Occs {
		if o.Lo != 0 && o.Lo != 2 {
			t.Fatalf("unexpected occurrence at %d", o.Lo)
		}
	}
}

func TestTreeWiseMatchesBlockWiseOnSmallProgram(t *testing.T) {
	// The paper: block-wise and tree-wise output the same results. Verify
	// on a GD-sized program where tree-wise completes.
	src := `
A = read("A")
b = read("b")
w = read("w")
i = 0
while (i < 3) {
    w = w - 0.1 * (t(A) %*% (A %*% w) - t(A) %*% b)
    i = i + 1
}
`
	r := res{
		"A": sparsity.MetaDims(100, 10, 0.5),
		"b": sparsity.MetaDims(100, 1, 1),
		"w": sparsity.MetaDims(10, 1, 1),
	}
	c := coordsFor(t, src, r)
	bw := BlockWise(c, sparsity.Metadata{})
	tw := TreeWise(c, 30*time.Second)
	if tw.TimedOut {
		t.Fatal("tree-wise timed out on a GD-sized program")
	}
	bwKeys := optionKeySet(bw, false)
	twKeys := optionKeySet(tw, false)
	for k := range bwKeys {
		if !twKeys[k] {
			t.Errorf("tree-wise missed option %q", k)
		}
	}
	for k := range twKeys {
		if !bwKeys[k] {
			t.Errorf("tree-wise found option %q that block-wise missed", k)
		}
	}
	if tw.Visited == 0 {
		t.Error("tree-wise visited no plans")
	}
}

// optionKeySet collects option keys; group options are excluded when
// comparing against tree-wise (which has no grouping extension).
func optionKeySet(r *Result, includeGroups bool) map[string]bool {
	out := map[string]bool{}
	for _, o := range r.Options {
		if o.Kind == CSEGroup && !includeGroups {
			continue
		}
		out[o.Key] = true
	}
	return out
}

func TestTreeWiseTimesOutOnDFP(t *testing.T) {
	// DFP's cross-product plan space is astronomically large; the deadline
	// must trip, mirroring the paper's "> 8 hours".
	c := coordsFor(t, dfpSrc, dfpResolver())
	tw := TreeWise(c, time.Second)
	if !tw.TimedOut {
		t.Fatal("tree-wise finished DFP in 1s — the plan space enumeration is broken")
	}
	if tw.Visited == 0 {
		t.Fatal("tree-wise visited nothing before the deadline")
	}
}

func TestSPORESFindsExplicitButMissesTransposeHidden(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	sp := SPORES(c, SPORESConfig{Samples: 64, Seed: 1, MaxChainLen: 12})
	bw := BlockWise(c, sparsity.Metadata{})
	if len(sp.Options) == 0 {
		t.Fatal("SPORES found nothing")
	}
	for _, o := range sp.Options {
		if o.Kind == LSE {
			t.Fatal("SPORES must not produce LSE options")
		}
	}
	// SPORES keys are syntactic (no transpose canonicalization), so
	// block-wise must find at least one redundancy SPORES misses entirely
	// — e.g. the loop-constant AᵀA.
	spKeys := map[string]bool{}
	for _, o := range sp.Options {
		spKeys[chain.CanonicalKey(atomsForSpan(c, o.Occs[0]))] = true
	}
	missed := 0
	for _, o := range bw.Options {
		if o.Kind != CSEGroup && !spKeys[o.Key] {
			missed++
		}
	}
	if missed == 0 {
		t.Fatal("SPORES found everything block-wise found; the sampling baseline is too strong")
	}
}

func TestGroupExtensionFindsCrossBlockSum(t *testing.T) {
	// The §3.2 discussion example: P·XY + P·YZ + XY·Q + YZ·Q has the
	// common grouped subexpression XY + YZ.
	src := `
P = read("P")
Q = read("Q")
X = read("X")
Y = read("Y")
Z = read("Z")
R1 = P %*% X %*% Y + P %*% Y %*% Z
R2 = X %*% Y %*% Q + Y %*% Z %*% Q
`
	r := res{
		"P": sparsity.MetaDims(10, 10, 1), "Q": sparsity.MetaDims(10, 10, 1),
		"X": sparsity.MetaDims(10, 10, 1), "Y": sparsity.MetaDims(10, 10, 1),
		"Z": sparsity.MetaDims(10, 10, 1),
	}
	c := coordsFor(t, src, r)
	result := BlockWise(c, sparsity.Metadata{})
	var group *Option
	for _, o := range result.Options {
		if o.Kind == CSEGroup && strings.Contains(o.Key, "X·Y") && strings.Contains(o.Key, "Y·Z") {
			group = o
		}
	}
	if group == nil {
		t.Fatalf("cross-block option (XY + YZ) not found:\n%s", dumpOptions(result))
	}
	if len(group.Occs) < 4 {
		t.Errorf("grouped option should cover 4 block spans, got %d", len(group.Occs))
	}
}

func TestSpanMetaOfOption(t *testing.T) {
	c := coordsFor(t, dfpSrc, dfpResolver())
	r := BlockWise(c, sparsity.Metadata{})
	atA := r.OptionByKey("A'·A")
	if atA == nil {
		t.Skip("key differs")
	}
	m, err := atA.SpanMeta(c, sparsity.Metadata{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 50 || m.Cols != 50 {
		t.Fatalf("AᵀA meta %dx%d, want 50x50", m.Rows, m.Cols)
	}
}

func TestOptionKindStrings(t *testing.T) {
	if CSE.String() != "CSE" || LSE.String() != "LSE" || CSEGroup.String() != "CSE-group" {
		t.Fatal("kind names changed")
	}
}

func TestEmptyCoordinates(t *testing.T) {
	c := &chain.Coordinates{}
	if r := BlockWise(c, sparsity.Metadata{}); len(r.Options) != 0 {
		t.Fatal("options from empty coordinates")
	}
	if r := TreeWise(c, time.Second); len(r.Options) != 0 || r.TimedOut {
		t.Fatal("tree-wise broken on empty coordinates")
	}
	if r := SPORES(c, DefaultSPORESConfig()); len(r.Options) != 0 {
		t.Fatal("SPORES broken on empty coordinates")
	}
}

func dumpOptions(r *Result) string {
	var b strings.Builder
	for _, o := range r.Options {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// OptionByKey returns the option with the given canonical key, or nil.
func (r *Result) OptionByKey(key string) *Option {
	for _, o := range r.Options {
		if o.Key == key {
			return o
		}
	}
	return nil
}
