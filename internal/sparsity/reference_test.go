package sparsity

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// MNC.Mul as this package shipped it before count vectors were summarised,
// kept here as the reference the production estimator must reproduce bit
// for bit: same Sparsity, same output counts. These are the old bodies
// unchanged — both outer vectors bucketed from scratch with a math.Log and a
// map probe per entry, one Expm1 per row per bucket — over plain slices.

type refMeta struct {
	Rows, Cols           int64
	Sparsity             float64
	RowCounts, ColCounts []int
}

func (m refMeta) NNZ() float64 { return float64(m.Rows) * float64(m.Cols) * m.Sparsity }

func refOf(m Meta) refMeta {
	out := refMeta{Rows: m.Rows, Cols: m.Cols, Sparsity: m.Sparsity}
	if m.RowCounts != nil {
		out.RowCounts = m.RowCounts.v
	}
	if m.ColCounts != nil {
		out.ColCounts = m.ColCounts.v
	}
	return out
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

// checkChains folds chains of 2–8 products (with transposes) drawn from rng
// through est and through the reference, comparing every intermediate.
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
			var next Meta
			if rng.Intn(3) == 0 { // a transposed atom
				next = est.Transpose(genMeta(rng, dims[i+1], dims[i], lens[i+1], lens[i]))
			} else {
				next = genMeta(rng, dims[i], dims[i+1], lens[i], lens[i+1])
			}
			if i == 0 {
				acc, ref = next, refOf(next)
				continue
			}
			// Virtualized operands disagree on the shared dimension; the
			// estimator only checks Cols == Rows, so align it.
			next.Rows = acc.Cols
			if rng.Intn(5) == 0 { // (B'·A')' — the flipped product
				got := est.Transpose(est.Mul(est.Transpose(next), est.Transpose(acc)))
				want := refMNCMul(refOf(transposeMeta(next)), refOf(transposeMeta(acc)))
				want.Rows, want.Cols = want.Cols, want.Rows
				want.RowCounts, want.ColCounts = want.ColCounts, want.RowCounts
				sameAsRef(t, "flipped product", got, want)
			}
			acc, ref = est.Mul(acc, next), refMNCMul(ref, refOf(next))
			sameAsRef(t, "chain product", acc, ref)
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
		m.RowCounts = NewCounts(append([]int(nil), m.RowCounts.v...))
		m.ColCounts = NewCounts(append([]int(nil), m.ColCounts.v...))
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
		for _, x := range c.v {
			total += x
		}
		return float64(total) / (float64(len(c.v)) * float64(width))
	}
	a = Meta{Rows: int64(n), Cols: int64(k), RowCounts: vec(n), ColCounts: vec(k)}
	b = Meta{Rows: int64(k), Cols: int64(p), RowCounts: vec(k), ColCounts: vec(p)}
	a.Sparsity, b.Sparsity = clamp01(sparsityOf(a.RowCounts, k)), clamp01(sparsityOf(b.RowCounts, p))
	a = Virtualize(a, int64(n)*scale, 0)
	b = Virtualize(b, 0, int64(p)*scale)
	return a, b
}

// FuzzMNCMul checks one product decoded from the fuzzed bytes and the
// generator's chains under the fuzzed seed against the reference, with and
// without the memo.
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
				sameAsRef(t, "fuzzed product", est.Mul(a, b), want)
				sameAsRef(t, "fuzzed product, repeated", est.Mul(a, b), want)
			}
		}
	})
}
