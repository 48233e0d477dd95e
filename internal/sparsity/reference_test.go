package sparsity

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"remac/internal/matrix"
)

// MNC as this package shipped it before count vectors were summarised and
// held in class form, kept here as the reference the production estimator
// must reproduce bit for bit: same Sparsity, same output counts. These are
// the old bodies unchanged — both outer vectors of a product bucketed anew
// with a math.Log and a map probe per entry, one Expm1 per row per bucket;
// sums, intersections and rescalings entry by entry — over plain slices.

type refMeta struct {
	Rows, Cols           int64
	Sparsity             float64
	RowCounts, ColCounts []int
}

func (m refMeta) NNZ() float64 { return float64(m.Rows) * float64(m.Cols) * m.Sparsity }

// entries materialises a vector (nil for nil).
func entries(c *Counts) []int {
	if c == nil {
		return nil
	}
	v := make([]int, c.Len())
	for i := range v {
		v[i] = c.At(i)
	}
	return v
}

func refOf(m Meta) refMeta {
	return refMeta{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Sparsity,
		RowCounts: entries(m.RowCounts), ColCounts: entries(m.ColCounts)}
}

func refTranspose(m refMeta) refMeta {
	m.Rows, m.Cols = m.Cols, m.Rows
	m.RowCounts, m.ColCounts = m.ColCounts, m.RowCounts
	return m
}

func refMNCMul(a, b refMeta) refMeta {
	if a.ColCounts == nil || b.RowCounts == nil || a.RowCounts == nil || b.ColCounts == nil {
		md := Metadata{}.Mul(MetaDims(a.Rows, a.Cols, a.Sparsity), MetaDims(b.Rows, b.Cols, b.Sparsity))
		return refMeta{Rows: md.Rows, Cols: md.Cols, Sparsity: md.Sparsity}
	}
	nnzA, nnzB := a.NNZ(), b.NNZ()
	if nnzA == 0 || nnzB == 0 {
		return refMeta{Rows: a.Rows, Cols: b.Cols,
			RowCounts: make([]int, len(a.RowCounts)), ColCounts: make([]int, len(b.ColCounts))}
	}
	innerRep := float64(a.Cols) / float64(len(a.ColCounts))
	t := 0.0
	for k := range a.ColCounts {
		t += float64(a.ColCounts[k]) * float64(b.RowCounts[k])
	}
	t *= innerRep
	coupling := t / (nnzA * nnzB)

	bucketsA := refBucketCounts(a.RowCounts)
	bucketsB := refBucketCounts(b.ColCounts)
	rowRep := float64(a.Rows) / float64(len(a.RowCounts))
	colRep := float64(b.Cols) / float64(len(b.ColCounts))
	expNNZ := 0.0
	for _, ba := range bucketsA {
		for _, bb := range bucketsB {
			lambda := ba.value * bb.value * coupling
			expNNZ += ba.n * rowRep * bb.n * colRep * -math.Expm1(-lambda)
		}
	}
	cells := float64(a.Rows) * float64(b.Cols)
	return refMeta{Rows: a.Rows, Cols: b.Cols, Sparsity: clamp01(expNNZ / cells),
		RowCounts: refPropagateMulRows(a.RowCounts, bucketsB, colRep, coupling, int(b.Cols)),
		ColCounts: refPropagateMulRows(b.ColCounts, bucketsA, rowRep, coupling, int(a.Rows))}
}

func refBucketCounts(counts []int) []bucket {
	byKey := map[int]*bucket{}
	for _, c := range counts {
		if c == 0 {
			continue
		}
		key := int(math.Round(math.Log(float64(c)) / math.Log(1.1)))
		if b, ok := byKey[key]; ok {
			b.value = (b.value*b.n + float64(c)) / (b.n + 1)
			b.n++
		} else {
			byKey[key] = &bucket{value: float64(c), n: 1}
		}
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]bucket, 0, len(byKey))
	for _, k := range keys {
		out = append(out, *byKey[k])
	}
	return out
}

func refPropagateMulRows(rowCounts []int, opposite []bucket, oppositeRep, coupling float64, dimCap int) []int {
	counts := make([]int, len(rowCounts))
	for i, rc := range rowCounts {
		if rc == 0 {
			continue
		}
		exp := 0.0
		for _, b := range opposite {
			exp += b.n * oppositeRep * -math.Expm1(-float64(rc)*b.value*coupling)
		}
		if exp > float64(dimCap) {
			exp = float64(dimCap)
		}
		counts[i] = int(math.Round(exp))
	}
	return counts
}

func refMNCAdd(a, b refMeta) refMeta {
	s := a.Sparsity + b.Sparsity - a.Sparsity*b.Sparsity
	out := refMeta{Rows: a.Rows, Cols: a.Cols, Sparsity: clamp01(s)}
	out.RowCounts = refUnionCounts(a.RowCounts, b.RowCounts, int(a.Cols))
	out.ColCounts = refUnionCounts(a.ColCounts, b.ColCounts, int(a.Rows))
	if len(out.RowCounts) > 0 {
		total := 0
		for _, c := range out.RowCounts {
			total += c
		}
		out.Sparsity = clamp01(float64(total) / (float64(len(out.RowCounts)) * float64(a.Cols)))
	}
	return out
}

func refUnionCounts(a, b []int, cap int) []int {
	if a == nil || b == nil || len(a) != len(b) {
		return nil
	}
	out := make([]int, len(a))
	for i := range a {
		u := float64(a[i]) + float64(b[i]) - float64(a[i])*float64(b[i])/float64(cap)
		if u > float64(cap) {
			u = float64(cap)
		}
		out[i] = int(math.Round(u))
	}
	return out
}

func refMNCElemMul(a, b refMeta) refMeta {
	out := refMeta{Rows: a.Rows, Cols: a.Cols, Sparsity: clamp01(a.Sparsity * b.Sparsity)}
	if a.RowCounts != nil && b.RowCounts != nil && len(a.RowCounts) == len(b.RowCounts) {
		ra, rb := a.RowCounts, b.RowCounts
		counts := make([]int, len(ra))
		total := 0
		for i := range counts {
			c := int(math.Round(float64(ra[i]) * float64(rb[i]) / float64(a.Cols)))
			counts[i] = c
			total += c
		}
		out.RowCounts = counts
		out.Sparsity = clamp01(float64(total) / (float64(len(counts)) * float64(a.Cols)))
	}
	return out
}

func refVirtualize(m refMeta, vRows, vCols int64) refMeta {
	if vRows <= 0 {
		vRows = m.Rows
	}
	if vCols <= 0 {
		vCols = m.Cols
	}
	out := m
	out.RowCounts = refScaleVals(m.RowCounts, float64(vCols)/float64(m.Cols))
	out.ColCounts = refScaleVals(m.ColCounts, float64(vRows)/float64(m.Rows))
	out.Rows, out.Cols = vRows, vCols
	return out
}

func refScaleVals(counts []int, f float64) []int {
	if counts == nil || f == 1 {
		return counts
	}
	out := make([]int, len(counts))
	for i, c := range counts {
		out[i] = int(math.Round(float64(c) * f))
	}
	return out
}

// sameAsRef fails unless got equals want in every bit: dims, the Sparsity
// float, nil-ness and every entry of both vectors.
func sameAsRef(t testing.TB, what string, got Meta, want refMeta) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: dims %dx%d, reference %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if math.Float64bits(got.Sparsity) != math.Float64bits(want.Sparsity) {
		t.Fatalf("%s: sparsity %x (%g), reference %x (%g)", what,
			math.Float64bits(got.Sparsity), got.Sparsity, math.Float64bits(want.Sparsity), want.Sparsity)
	}
	for side, pair := range map[string]struct {
		got  *Counts
		want []int
	}{"row": {got.RowCounts, want.RowCounts}, "col": {got.ColCounts, want.ColCounts}} {
		if (pair.got == nil) != (pair.want == nil) || pair.got.Len() != len(pair.want) {
			t.Fatalf("%s: %s counts nil=%v len %d, reference nil=%v len %d", what, side,
				pair.got == nil, pair.got.Len(), pair.want == nil, len(pair.want))
		}
		for i, w := range pair.want {
			if pair.got.At(i) != w {
				t.Fatalf("%s: %s count %d = %d, reference %d", what, side, i, pair.got.At(i), w)
			}
		}
	}
}

// genCounts draws one count vector of n entries bounded by dim, in one of
// the shapes the estimator meets: uniform, zipf-skewed (0.7 / 1.4 / 2.1),
// a single repeated value (a dense intermediate), with empty rows, all zero.
func genCounts(rng *rand.Rand, n, dim int) []int {
	v := make([]int, n)
	switch shape := rng.Intn(8); shape {
	case 0: // uniform around a mean
		mean := 1 + rng.Intn(dim)
		for i := range v {
			v[i] = mean/2 + rng.Intn(mean+1)
		}
	case 1, 2, 3: // zipf-0.7 / 1.4 / 2.1 over ranks
		s := []float64{0.7, 1.4, 2.1}[shape-1]
		for i := range v {
			v[i] = int(float64(dim) / math.Pow(float64(1+rng.Intn(n)), s))
		}
	case 4: // one value
		c := rng.Intn(dim + 1)
		for i := range v {
			v[i] = c
		}
	case 5: // runs with empty rows
		for i := range v {
			if rng.Intn(3) > 0 {
				v[i] = 1 + rng.Intn(1+dim/4)
			}
		}
	case 6: // all zero
	default: // few distinct values in blocks
		vals := []int{rng.Intn(dim + 1), rng.Intn(dim + 1), rng.Intn(dim + 1)}
		for i := range v {
			v[i] = vals[(i*len(vals))/n]
		}
	}
	for i := range v {
		if v[i] > dim {
			v[i] = dim
		}
	}
	return v
}

// genMeta draws a rows×cols descriptor sketched by vectors of rlen and clen
// entries (the dimension, or a sampled length below it), possibly
// virtualized to paper scale, possibly without sketches, possibly empty.
func genMeta(rng *rand.Rand, rows, cols, rlen, clen int) Meta {
	rc, cc := genCounts(rng, rlen, cols), genCounts(rng, clen, rows)
	total := 0
	for _, c := range rc {
		total += c
	}
	m := MetaDims(int64(rows), int64(cols), float64(total)/(float64(rlen)*float64(cols)))
	m.RowCounts, m.ColCounts = NewCounts(rc), NewCounts(cc)
	switch rng.Intn(6) {
	case 0: // no sketch on one side or both
		switch rng.Intn(3) {
		case 0:
			m.RowCounts = nil
		case 1:
			m.ColCounts = nil
		default:
			m.RowCounts, m.ColCounts = nil, nil
		}
	case 1:
		m = Virtualize(m, int64(rows)*int64(1+rng.Intn(5000)), int64(cols)*int64(1+rng.Intn(500)))
	case 2:
		m = Virtualize(m, int64(rows)*int64(1+rng.Intn(5000)), 0)
	}
	return m
}

// filled returns n entries of value v.
func filled(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// checkChains folds chains of 2–8 products (with transposes) drawn from rng
// through est and through the reference, comparing every intermediate. The
// products' class-form results feed the other operators on the way: sums
// and intersections with partners that share their class index, are a
// single class, or are unrelated; transposed products; rescalings to
// virtual dimensions.
func checkChains(t testing.TB, rng *rand.Rand, est Estimator, chains int) {
	t.Helper()
	for c := 0; c < chains; c++ {
		// lens[i] is the materialized length of dimension i: every vector
		// along it has that many entries, as count vectors of real operands
		// do.
		dims := make([]int, 3+rng.Intn(7))
		lens := make([]int, len(dims))
		for i := range dims {
			dims[i] = 1 + rng.Intn(60)
			if rng.Intn(4) == 0 {
				dims[i] = 1 + rng.Intn(900)
			}
			lens[i] = dims[i]
			if rng.Intn(4) == 0 { // sampled length ≠ dimension
				lens[i] = 1 + rng.Intn(dims[i])
			}
		}
		var acc Meta
		var ref refMeta
		for i := 0; i+1 < len(dims); i++ {
			operand := func() Meta {
				if rng.Intn(3) == 0 { // a transposed atom
					return est.Transpose(genMeta(rng, dims[i+1], dims[i], lens[i+1], lens[i]))
				}
				return genMeta(rng, dims[i], dims[i+1], lens[i], lens[i+1])
			}
			next := operand()
			if i == 0 {
				acc, ref = next, refOf(next)
				continue
			}
			// Virtualized operands disagree on the shared dimension; the
			// estimator only checks Cols == Rows, so align it.
			next.Rows = acc.Cols
			if rng.Intn(5) == 0 { // (B'·A')' — the flipped product
				got := est.Transpose(est.Mul(est.Transpose(next), est.Transpose(acc)))
				want := refTranspose(refMNCMul(refTranspose(refOf(next)), refTranspose(ref)))
				sameAsRef(t, "flipped product", got, want)
			}
			prev, prevRef := acc, ref
			acc, ref = est.Mul(acc, next), refMNCMul(ref, refOf(next))
			sameAsRef(t, "chain product", acc, ref)

			switch rng.Intn(4) {
			case 0, 1: // a sum or an intersection with a partner
				var p Meta
				var pref refMeta
				switch rng.Intn(5) {
				case 0: // itself: one index on both sides
					p, pref = acc, ref
				case 1: // a sibling product: shares the row index
					o := operand()
					o.Rows = prev.Cols
					p, pref = est.Mul(prev, o), refMNCMul(prevRef, refOf(o))
				case 2: // the sibling flipped, through two transposes
					o := operand()
					o.Rows = prev.Cols
					p = est.Transpose(est.Mul(est.Transpose(o), est.Transpose(prev)))
					pref = refTranspose(refMNCMul(refTranspose(refOf(o)), refTranspose(prevRef)))
				case 3: // dense: a single class per side
					p = MetaDims(acc.Rows, acc.Cols, 1)
					p.RowCounts, p.ColCounts = NewCounts(filled(lens[0], dims[i+1])), NewCounts(filled(lens[i+1], dims[0]))
					pref = refOf(p)
				default: // measured and unrelated
					p = genMeta(rng, dims[0], dims[i+1], lens[0], lens[i+1])
					pref = refOf(p)
				}
				p.Rows, p.Cols = acc.Rows, acc.Cols
				pref.Rows, pref.Cols = acc.Rows, acc.Cols
				if rng.Intn(2) == 0 {
					acc, ref = est.Add(acc, p), refMNCAdd(ref, pref)
					sameAsRef(t, "chain sum", acc, ref)
				} else {
					acc, ref = est.ElemMul(acc, p), refMNCElemMul(ref, pref)
					sameAsRef(t, "chain intersection", acc, ref)
				}
			case 2: // rescaled to virtual dimensions
				vRows, vCols := acc.Rows*int64(rng.Intn(40)), acc.Cols*int64(rng.Intn(40))
				acc, ref = Virtualize(acc, vRows, vCols), refVirtualize(ref, vRows, vCols)
				sameAsRef(t, "chain rescaled", acc, ref)
			}
		}
	}
}

func TestMNCMulMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkChains(t, rand.New(rand.NewSource(seed)), MNC{}, 8)
		// Through the memo: one table across all of a seed's chains, so
		// interned operands and tabled products are what later chains read.
		checkChains(t, rand.New(rand.NewSource(seed)), NewMemo(MNC{}), 8)
	}
}

// TestMemoRepeatsAreHits pins what the memo is for: the same product asked
// again — by identity or by equal content at another address — reaches the
// wrapped estimator once, and returns the very same vectors.
func TestMemoRepeatsAreHits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inner := &countingEstimator{Estimator: MNC{}}
	memo := NewMemo(inner)
	a, b := MetaDims(40, 30, 0.3), MetaDims(30, 50, 0.1)
	a.RowCounts, a.ColCounts = NewCounts(genCounts(rng, 40, 30)), NewCounts(genCounts(rng, 30, 40))
	b.RowCounts, b.ColCounts = NewCounts(genCounts(rng, 30, 50)), NewCounts(genCounts(rng, 50, 30))
	first := memo.Mul(a, b)
	clone := func(m Meta) Meta {
		m.RowCounts, m.ColCounts = NewCounts(entries(m.RowCounts)), NewCounts(entries(m.ColCounts))
		return m
	}
	for i, again := range []Meta{memo.Mul(a, b), memo.Mul(clone(a), clone(b))} {
		if again != first {
			t.Errorf("repeat %d: result differs from the first (%+v vs %+v)", i, again, first)
		}
	}
	if inner.muls != 1 {
		t.Errorf("wrapped estimator evaluated %d products, want 1", inner.muls)
	}
}

// TestContentHashIgnoresTheIndex: the memo keys a vector by a hash read per
// class, so equal entries must hash equal over any class index — here a
// rescaled vector whose seven classes round to two values, against the same
// entries measured (two classes) — and the check behind a hash match must
// still tell a changed entry or length apart.
func TestContentHashIgnoresTheIndex(t *testing.T) {
	_, a := cri2Like()
	derived := Virtualize(a, 0, a.Cols/10).RowCounts
	measured := NewCounts(entries(derived))
	if derived.contentHash() != measured.contentHash() || !derived.sameContent(measured) || !measured.sameContent(derived) {
		t.Fatalf("equal entries over %d and %d classes: hashes %x, %x", len(derived.classified().vals),
			len(measured.classified().vals), derived.contentHash(), measured.contentHash())
	}
	changed := entries(derived)
	changed[len(changed)-1]++
	for what, other := range map[string]*Counts{"changed": NewCounts(changed), "shorter": NewCounts(entries(derived)[1:])} {
		if derived.contentHash() == other.contentHash() || derived.sameContent(other) {
			t.Errorf("%s entries: hash equal %v, same content %v", what,
				derived.contentHash() == other.contentHash(), derived.sameContent(other))
		}
	}
}

type countingEstimator struct {
	Estimator
	muls int
}

func (c *countingEstimator) Mul(a, b Meta) Meta {
	c.muls++
	return c.Estimator.Mul(a, b)
}

// metasFromBytes decodes fuzzed bytes into the operands of one product:
// three dimensions, a virtual-scale factor, then count entries (one byte
// each, cycled) for the four vectors.
func metasFromBytes(raw []byte) (a, b Meta) {
	n, k, p := 1+int(raw[0])%48, 1+int(raw[1])%48, 1+int(raw[2])%48
	scale := 1 + int64(raw[3])*97
	raw = raw[4:]
	next := 0
	vec := func(n int) *Counts {
		v := make([]int, n)
		for i := range v {
			if len(raw) > 0 {
				v[i] = int(raw[next%len(raw)])
				next++
			}
		}
		return NewCounts(v)
	}
	sparsityOf := func(c *Counts, width int) float64 {
		total := 0
		for _, x := range entries(c) {
			total += x
		}
		return float64(total) / (float64(c.Len()) * float64(width))
	}
	a = Meta{Rows: int64(n), Cols: int64(k), RowCounts: vec(n), ColCounts: vec(k)}
	b = Meta{Rows: int64(k), Cols: int64(p), RowCounts: vec(k), ColCounts: vec(p)}
	a.Sparsity, b.Sparsity = clamp01(sparsityOf(a.RowCounts, k)), clamp01(sparsityOf(b.RowCounts, p))
	a = Virtualize(a, int64(n)*scale, 0)
	b = Virtualize(b, 0, int64(p)*scale)
	return a, b
}

// FuzzMNCMul checks one product decoded from the fuzzed bytes, the sum,
// intersection and rescaling of its class-form result, and the generator's
// chains under the fuzzed seed against the reference, with and without the
// memo.
func FuzzMNCMul(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed, []byte{7, 5, 9, 3, 0, 1, 1, 2, 40, 40, 41, 200})
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		for _, est := range []Estimator{MNC{}, NewMemo(MNC{})} {
			checkChains(t, rand.New(rand.NewSource(seed)), est, 2)
			if len(raw) >= 4 {
				a, b := metasFromBytes(raw)
				want := refMNCMul(refOf(a), refOf(b))
				got := est.Mul(a, b)
				sameAsRef(t, "fuzzed product", got, want)
				sameAsRef(t, "fuzzed product, repeated", est.Mul(a, b), want)
				dense := MetaDims(got.Rows, got.Cols, 1)
				dense.RowCounts = NewCounts(filled(got.RowCounts.Len(), int(got.Cols)))
				dense.ColCounts = NewCounts(filled(got.ColCounts.Len(), int(got.Rows)))
				sameAsRef(t, "fuzzed sum", est.Add(got, got), refMNCAdd(want, want))
				sameAsRef(t, "fuzzed sum, dense", est.Add(dense, got), refMNCAdd(refOf(dense), want))
				sameAsRef(t, "fuzzed intersection", est.ElemMul(got, dense), refMNCElemMul(want, refOf(dense)))
				sameAsRef(t, "fuzzed rescaling", Virtualize(got, got.Rows*3, got.Cols*7),
					refVirtualize(want, want.Rows*3, want.Cols*7))
			}
		}
	})
}

// planChain is a small compilation over est: the matrix-chain DP choosing
// the parenthesization of ms[0]·…·ms[n-1] with the fewest estimated nonzeros
// summed over its intermediates, then the result's sum and intersection with
// a dense operand. It renders the plan with every float by its bits and
// every vector by its entries.
func planChain(est Estimator, ms []Meta) string {
	n := len(ms)
	type cell struct {
		meta  Meta
		cost  float64
		split int
	}
	dp := make([][]cell, n)
	for i := range dp {
		dp[i] = make([]cell, n)
		dp[i][i].meta = ms[i]
	}
	for span := 1; span < n; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			dp[i][j].cost = math.Inf(1)
			for k := i; k < j; k++ {
				m := est.Mul(dp[i][k].meta, dp[k+1][j].meta)
				if c := dp[i][k].cost + dp[k+1][j].cost + m.NNZ(); c < dp[i][j].cost {
					dp[i][j] = cell{m, c, k}
				}
			}
		}
	}
	var b strings.Builder
	var tree func(i, j int)
	tree = func(i, j int) {
		if i == j {
			fmt.Fprintf(&b, "%d", i)
			return
		}
		b.WriteString("(")
		tree(i, dp[i][j].split)
		b.WriteString("·")
		tree(dp[i][j].split+1, j)
		b.WriteString(")")
	}
	tree(0, n-1)
	out := dp[0][n-1].meta
	fmt.Fprintf(&b, " cost=%x\n", math.Float64bits(dp[0][n-1].cost))
	dense := MetaDims(out.Rows, out.Cols, 1)
	dense.RowCounts = NewCounts(filled(out.RowCounts.Len(), int(out.Cols)))
	dense.ColCounts = NewCounts(filled(out.ColCounts.Len(), int(out.Rows)))
	for _, m := range []Meta{out, est.Add(out, dense), est.ElemMul(out, out)} {
		fmt.Fprintf(&b, "%dx%d s=%x rows=%v cols=%v\n", m.Rows, m.Cols, math.Float64bits(m.Sparsity),
			entries(m.RowCounts), entries(m.ColCounts))
	}
	return b.String()
}

// TestCountsSharedAcrossCompilations: compilations running at once over the
// same inputs share what the inputs carry — the vectors a matrix hands
// MetaOf, their class indexes (built by whichever compilation classifies
// first), and the hash weights and buckets published on first use — while
// each derives its own vectors over those indexes. Every one must arrive at
// the plan a lone compilation over its own copy of the inputs makes, to the
// bit.
func TestCountsSharedAcrossCompilations(t *testing.T) {
	inputs := func() []*matrix.Matrix {
		rng := rand.New(rand.NewSource(11))
		return []*matrix.Matrix{
			matrix.ZipfSparse(rng, 300, 200, 0.01, 1.4),
			matrix.RandSparse(rng, 200, 250, 0.01),
			matrix.ZipfSparse(rng, 250, 120, 0.02, 2.1),
			matrix.RandDense(rng, 120, 90),
		}
	}
	// What a compilation binds, as the optimizer's callers do: each input
	// rescaled to virtual dimensions, and the last one's transpose as
	// measured.
	virtual := []int64{3_000, 400, 250, 120, 90}
	bind := func(mats []*matrix.Matrix) []Meta {
		var ms []Meta
		for i, m := range mats {
			ms = append(ms, Virtualize(MetaOf(m), virtual[i], virtual[i+1]))
		}
		last := transposeMeta(MetaOf(mats[len(mats)-1]))
		last.Rows = virtual[len(mats)]
		return append(ms, last)
	}
	want := planChain(NewMemo(MNC{}), bind(inputs()))

	shared := inputs()
	plans := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			est := Estimator(NewMemo(MNC{}))
			if g%2 == 1 {
				est = MNC{}
			}
			plans[g] = planChain(est, bind(shared))
		}(g)
	}
	close(start)
	wg.Wait()
	for g, got := range plans {
		if got != want {
			t.Errorf("compilation %d differs from a lone one:\n%s\nwant\n%s", g, got, want)
		}
	}
}
