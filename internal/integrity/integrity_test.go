package integrity

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"remac/internal/matrix"
)

func TestDigestDeterministicAndSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := matrix.RandSparse(rng, 20, 30, 0.2)
	if Digest(m) != Digest(m.Clone()) {
		t.Fatal("digest differs between clones")
	}
	c, ok := Corrupt(m, 0xDEADBEEF)
	if !ok {
		t.Fatal("corrupt failed on a nonzero matrix")
	}
	if Digest(c) == Digest(m) {
		t.Fatal("digest blind to a flipped bit")
	}
	if m.Equal(c) {
		t.Fatal("Corrupt mutated nothing")
	}
}

func TestCorruptNeverMutatesOriginal(t *testing.T) {
	m := matrix.NewDense(2, 2)
	m.Set(0, 0, 3)
	before := m.Clone()
	for bits := uint64(0); bits < 64; bits++ {
		if _, ok := Corrupt(m, bits<<8); !ok {
			t.Fatal("corrupt failed")
		}
		if !m.Equal(before) {
			t.Fatalf("bits %d mutated the original", bits)
		}
	}
}

func TestABFTCheckPassesRealProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sp := range []float64{1.0, 0.1} {
		a := matrix.RandSparse(rng, 40, 25, sp)
		b := matrix.RandSparse(rng, 25, 30, sp)
		c := a.Mul(b)
		if !ABFTCheck(a, b, c) {
			t.Fatalf("ABFT rejects an exact product (sparsity %g)", sp)
		}
	}
}

func TestABFTCheckCatchesCorruptProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.RandDense(rng, 12, 8)
	b := matrix.RandDense(rng, 8, 9)
	c := a.Mul(b)
	for bits := uint64(0); bits < 32; bits++ {
		bad, ok := Corrupt(c, bits<<8)
		if !ok {
			t.Fatal("corrupt failed")
		}
		if ABFTCheck(a, b, bad) {
			t.Fatalf("ABFT passed a corrupted product (bits %d)", bits)
		}
	}
}

func TestABFTCheckFailsOnNonFinite(t *testing.T) {
	a := matrix.Identity(3)
	b := matrix.Identity(3)
	c := matrix.Identity(3)
	c.Set(1, 1, math.NaN())
	if ABFTCheck(a, b, c) {
		t.Fatal("ABFT passed a NaN product")
	}
	c.Set(1, 1, math.Inf(1))
	if ABFTCheck(a, b, c) {
		t.Fatal("ABFT passed an Inf product")
	}
}

func TestScanNonFinite(t *testing.T) {
	m := matrix.NewDense(3, 3)
	if _, _, _, found := ScanNonFinite(m); found {
		t.Fatal("found poison in a zero matrix")
	}
	m.Set(2, 1, math.NaN())
	i, j, v, found := ScanNonFinite(m)
	if !found || i != 2 || j != 1 || !math.IsNaN(v) {
		t.Fatalf("scan = (%d,%d,%g,%v), want (2,1,NaN,true)", i, j, v, found)
	}
	s := m.ToCSR()
	if _, _, _, found := ScanNonFinite(s); !found {
		t.Fatal("CSR scan missed the NaN")
	}
}

func TestParseModes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want VerifyMode
	}{{"", VerifyOff}, {"off", VerifyOff}, {"digest", VerifyDigest}, {"abft", VerifyABFT}} {
		got, err := ParseVerifyMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseVerifyMode(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in && c.in != "" {
			t.Fatalf("VerifyMode round-trip broke on %q", c.in)
		}
	}
	if _, err := ParseVerifyMode("bogus"); err == nil {
		t.Fatal("bogus verify mode accepted")
	}
	for _, c := range []struct {
		in   string
		want GuardMode
	}{{"", GuardOff}, {"off", GuardOff}, {"iter", GuardPerIteration}, {"op", GuardPerOp}} {
		got, err := ParseGuardMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseGuardMode(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseGuardMode("bogus"); err == nil {
		t.Fatal("bogus guard mode accepted")
	}
}

func TestTypedErrorsUnwrap(t *testing.T) {
	var err error = &Error{Op: "dfs-read", Via: "digest", Attempts: 3}
	if !errors.Is(err, ErrCorruption) {
		t.Fatal("Error does not unwrap to ErrCorruption")
	}
	var ie *Error
	if !errors.As(err, &ie) || ie.Attempts != 3 {
		t.Fatal("errors.As lost the Error fields")
	}
	var nerr error = &NumericError{Op: "mul/bmm", Row: 1, Col: 2, Value: math.Inf(1)}
	if !errors.Is(nerr, ErrNonFinite) {
		t.Fatal("NumericError does not unwrap to ErrNonFinite")
	}
	if errors.Is(nerr, ErrCorruption) || errors.Is(err, ErrNonFinite) {
		t.Fatal("sentinels cross-match")
	}
}

func TestColumnChecksum(t *testing.T) {
	m := matrix.NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 0, 2)
	m.Set(1, 2, -4)
	got := ColumnChecksum(m)
	want := []float64{3, 0, -4}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("checksum[%d] = %g, want %g", j, got[j], want[j])
		}
	}
}

// TestDigestValuesIdentity: the result identity is "same names, shapes and
// nonzero cells bit for bit" — independent of storage format and of the
// sign of a zero, sensitive to everything else.
func TestDigestValuesIdentity(t *testing.T) {
	dense := matrix.NewDenseData(2, 3, []float64{1.5, 0, -2, 0, 0, 3})
	base := map[string]*matrix.Matrix{"x": dense, "H": matrix.Identity(2)}
	ref := DigestValues(base)
	with := func(name string, m *matrix.Matrix) map[string]*matrix.Matrix {
		out := map[string]*matrix.Matrix{"H": base["H"]}
		out[name] = m
		return out
	}

	if got := DigestValues(with("x", dense.ToCSR())); got != ref {
		t.Errorf("CSR encoding of the same values hashes %016x, dense %016x", got, ref)
	}
	if got := DigestValues(with("x", dense.Clone())); got != ref {
		t.Errorf("clone hashes %016x, original %016x", got, ref)
	}
	negZero := matrix.NewDenseData(2, 3, []float64{1.5, math.Copysign(0, -1), -2, 0, 0, 3})
	if got := DigestValues(with("x", negZero)); got != ref {
		t.Errorf("the sign of a zero changed the identity (%016x vs %016x), but dense↔CSR conversion drops it too", got, ref)
	}

	changed := map[string]*matrix.Matrix{
		"one mantissa bit flipped": matrix.NewDenseData(2, 3, []float64{math.Float64frombits(math.Float64bits(1.5) ^ 1), 0, -2, 0, 0, 3}),
		"one nonzero moved":        matrix.NewDenseData(2, 3, []float64{1.5, -2, 0, 0, 0, 3}),
		"shape transposed":         matrix.NewDenseData(3, 2, []float64{1.5, 0, -2, 0, 0, 3}),
		"a zero became nonzero":    matrix.NewDenseData(2, 3, []float64{1.5, 0, -2, 0, 5e-324, 3}),
	}
	for what, m := range changed {
		if DigestValues(with("x", m)) == ref {
			t.Errorf("%s: identity unchanged", what)
		}
	}
	if DigestValues(with("y", dense)) == ref {
		t.Error("renaming a variable left the identity unchanged")
	}
	swapped := map[string]*matrix.Matrix{"x": base["H"], "H": dense}
	if DigestValues(swapped) == ref {
		t.Error("swapping two variables' values left the identity unchanged")
	}
	if DigestValues(map[string]*matrix.Matrix{"x": dense}) == ref {
		t.Error("dropping a variable left the identity unchanged")
	}
}

// The digest folds a word per step; it must still see every single flipped
// bit, and differences confined to the top bits of two cells (two sign
// flips) must not cancel each other.
func TestDigestSeesEveryBitAndPairedSignFlips(t *testing.T) {
	cells := []float64{1.5, 0, -2, 0.25, 0, 3, 7, -1e-3, 0}
	ref := Digest(matrix.NewDenseData(3, 3, cells))
	for idx, v := range cells {
		if v == 0 {
			continue
		}
		for bit := 0; bit < 64; bit++ {
			flipped := append([]float64(nil), cells...)
			flipped[idx] = math.Float64frombits(math.Float64bits(v) ^ 1<<bit)
			if flipped[idx] == 0 {
				continue // a value flipped to zero leaves the payload; covered below
			}
			if Digest(matrix.NewDenseData(3, 3, flipped)) == ref {
				t.Fatalf("cell %d bit %d: digest unchanged", idx, bit)
			}
		}
	}
	for a := range cells {
		for b := a + 1; b < len(cells); b++ {
			if cells[a] == 0 || cells[b] == 0 {
				continue
			}
			negated := append([]float64(nil), cells...)
			negated[a], negated[b] = -negated[a], -negated[b]
			if Digest(matrix.NewDenseData(3, 3, negated)) == ref {
				t.Fatalf("negating cells %d and %d: digest unchanged", a, b)
			}
		}
	}
	dropped := append([]float64(nil), cells...)
	dropped[0] = 0
	if Digest(matrix.NewDenseData(3, 3, dropped)) == ref {
		t.Fatal("a value that became zero left the digest unchanged")
	}
	// Same cells in another shape: the linear index alone would collide.
	if Digest(matrix.NewDenseData(1, 9, cells)) == ref || Digest(matrix.NewDenseData(9, 1, cells)) == ref {
		t.Fatal("reshaping left the digest unchanged")
	}
}
