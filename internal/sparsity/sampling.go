package sparsity

// Sampling is the middle ground the paper mentions between metadata-based
// and sketch-based estimation (as in MATFAST): it behaves like MNC but on
// count vectors subsampled by Fraction, trading accuracy for sketch size.
type Sampling struct {
	// Fraction of rows/columns whose counts are retained, in (0, 1].
	Fraction float64
}

// Name implements Estimator.
func (s Sampling) Name() string { return "Sample" }

func (s Sampling) frac() float64 {
	if s.Fraction <= 0 || s.Fraction > 1 {
		return 0.1
	}
	return s.Fraction
}

func (s Sampling) thin(m Meta) Meta {
	out := m
	out.RowCounts = sampleCounts(m.RowCounts, s.frac())
	out.ColCounts = sampleCounts(m.ColCounts, s.frac())
	return out
}

// sampleCounts keeps every k-th count and rescales so totals are preserved
// in expectation. Deterministic (systematic sampling) so estimates are
// reproducible.
func sampleCounts(c *Counts, frac float64) *Counts {
	if c == nil {
		return nil
	}
	c = c.classified()
	step := int(1 / frac)
	if step < 1 {
		step = 1
	}
	out := make([]int, c.Len())
	for i := 0; i < len(out); i += step {
		v := c.vals[c.idx.class[i]]
		// Smear the sampled value over the skipped stride.
		for j := i; j < i+step && j < len(out); j++ {
			out[j] = v
		}
	}
	return NewCounts(out)
}

// Mul implements Estimator.
func (s Sampling) Mul(a, b Meta) Meta { return MNC{}.Mul(s.thin(a), s.thin(b)) }

// Add implements Estimator.
func (s Sampling) Add(a, b Meta) Meta { return MNC{}.Add(s.thin(a), s.thin(b)) }

// ElemMul implements Estimator.
func (s Sampling) ElemMul(a, b Meta) Meta { return MNC{}.ElemMul(s.thin(a), s.thin(b)) }

// Transpose implements Estimator.
func (s Sampling) Transpose(a Meta) Meta { return MNC{}.Transpose(a) }

// Scale implements Estimator.
func (s Sampling) Scale(a Meta) Meta { return a }
