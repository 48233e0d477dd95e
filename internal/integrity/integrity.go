// Package integrity implements end-to-end data-integrity checking for the
// simulated cluster: fast block digests verified on every charged
// transmission and DFS read, algorithm-based fault tolerance (ABFT) checksum
// validation for distributed multiplies, and non-finite guards that stop
// divergent iterations from propagating poison.
//
// The threat model splits in two. Fail-stop faults (crashes, lost
// transmissions, stragglers) are loud — the fault model of internal/fault
// charges their recovery cost and results stay exact. Silent corruption is
// different: a flipped bit in a payload produces a *wrong* value that every
// downstream kernel happily consumes. This package supplies the detection
// half of the loop; internal/distmat closes it by treating a corrupted block
// as a lost partition of its producer and re-running lineage recovery.
//
// Coverage is layered. Digests (an FNV-style fold over the logical payload)
// catch any bit flip on data *in flight* — transmissions and DFS reads —
// because the received bytes no longer hash to the producer's digest. They
// cannot catch a flip that happens *inside* a distributed multiply, before
// the output digest is computed: for that, ABFT maintains column-checksum
// vectors so C = A·B is validated by comparing checksum(A)·B against
// checksum(C) within a scaled tolerance. A NaN/Inf scan is the third layer,
// aimed not at injected faults but at numerically divergent programs.
package integrity

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"remac/internal/matrix"
)

// VerifyMode selects how much of the integrity layer a run enables.
type VerifyMode int

const (
	// VerifyOff disables all corruption detection: flipped bits propagate.
	VerifyOff VerifyMode = iota
	// VerifyDigest checks block digests on every charged transmission and
	// DFS read. It catches in-flight corruption but not flips inside a
	// distributed multiply's compute phase.
	VerifyDigest
	// VerifyABFT adds checksum-vector validation of the distributed
	// multiply paths on top of digests, closing the compute-phase gap.
	VerifyABFT
)

// String names the mode as the -verify flag spells it.
func (m VerifyMode) String() string {
	switch m {
	case VerifyOff:
		return "off"
	case VerifyDigest:
		return "digest"
	case VerifyABFT:
		return "abft"
	default:
		return fmt.Sprintf("VerifyMode(%d)", int(m))
	}
}

// ParseVerifyMode parses the -verify flag value.
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch s {
	case "off", "":
		return VerifyOff, nil
	case "digest":
		return VerifyDigest, nil
	case "abft":
		return VerifyABFT, nil
	}
	return VerifyOff, fmt.Errorf("integrity: unknown verify mode %q (want off, digest or abft)", s)
}

// GuardMode selects how often the non-finite scan runs.
type GuardMode int

const (
	// GuardOff disables the scan: NaN/Inf values propagate into results.
	GuardOff GuardMode = iota
	// GuardPerIteration scans every loop-bound value at iteration end.
	GuardPerIteration
	// GuardPerOp scans every charged operator's output as it is produced,
	// pinpointing the first poisoned operator.
	GuardPerOp
)

// String names the mode as the -nan-guard flag spells it.
func (m GuardMode) String() string {
	switch m {
	case GuardOff:
		return "off"
	case GuardPerIteration:
		return "iter"
	case GuardPerOp:
		return "op"
	default:
		return fmt.Sprintf("GuardMode(%d)", int(m))
	}
}

// ParseGuardMode parses the -nan-guard flag value.
func ParseGuardMode(s string) (GuardMode, error) {
	switch s {
	case "off", "":
		return GuardOff, nil
	case "iter":
		return GuardPerIteration, nil
	case "op":
		return GuardPerOp, nil
	}
	return GuardOff, fmt.Errorf("integrity: unknown nan-guard mode %q (want off, iter or op)", s)
}

// DigestBandwidth is the modelled per-node hashing throughput in bytes per
// second. An FNV-style fold is a single multiply-xor per word, so it runs
// near memory speed; digesting a payload costs a small fraction of moving it.
const DigestBandwidth = 5e9

// ScanBandwidth is the modelled per-node throughput of the non-finite scan
// (one exponent-mask compare per element, memory bound).
const ScanBandwidth = 2e10

// CorruptedBit is the payload bit a Corruption fault flips: bit 62, the top
// exponent bit of an IEEE-754 double. Flipping it moves a value across
// ~±2^512, which keeps injected damage unambiguous — far above kernel
// round-off, so a working detector must always fire.
const CorruptedBit = 62

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold takes one 64-bit word into an FNV-style state in a single
// xor-multiply step (the byte-at-a-time fold cost eight dependent multiplies
// per word). A multiply only carries differences upward, so the xor-ed state
// is first rotated by half a word: a difference in the top bits — the sign
// and exponent bits corruption flips — lands in the low half and the multiply
// spreads it. Xor, rotate and multiply by an odd constant are each a
// bijection of the state, and for a given state the step is a bijection of
// the word too, so two payloads that differ in one word can never fold to the
// same state.
func fold(h, x uint64) uint64 { return bits.RotateLeft64(h^x, 32) * fnvPrime }

// fnv1a is the running state the folds below keep.
type fnv1a uint64

func (h *fnv1a) byte(b byte) { *h = (*h ^ fnv1a(b)) * fnvPrime }

func (h *fnv1a) word(x uint64) { *h = fnv1a(fold(uint64(*h), x)) }

// summaryBlockRows is the height of the row blocks a summary is made of. It
// is part of the digest's definition, not a tuning knob: block boundaries
// decide which hashes fold into which.
const summaryBlockRows = 64

// summarised, when a test of this package sets it, sees every matrix a
// summary pass is made over — a memo hit makes none.
var summarised func(m *matrix.Matrix)

// Summarise returns the digest and Σx² of m, from the matrix if it carries
// them and from one pass over the cells if not; the pass is the one place in
// the repository that walks matrix cells to hash them.
//
// The digest is a function of the logical payload alone — rows, cols and the
// set of (i, j, bits) with a numerically nonzero value — whatever the storage
// format (a dense block and a CSR block holding the same values hash
// identically, explicit CSR zeros included, so a format switch in transit is
// not a false corruption), however many goroutines made the pass, and whether
// it was made now or remembered. Every row is a lane of its own: from the
// offset basis it folds (column, bits) for each nonzero value in column
// order. Row hashes fold, in row order, into the hash of their 64-row block,
// and block hashes fold, in block order, after the dimensions, into the
// digest. Lanes do not depend on one another, so four rows are hashed at a
// time with their multiply chains overlapped, and blocks are striped by the
// cells they store (matrix.Stripes). Each fold being a bijection both of the
// state and of the word, a single differing word changes its row's hash, hence
// its block's, hence the digest.
//
// Σx² is summed the same way — along a row in column order, row sums in row
// order within a block, block sums in block order — so it too repeats bit for
// bit across formats (x + 0 = x for a sum of squares), stripe counts and
// machines. It is not the association order of Matrix.FrobeniusNorm.
func Summarise(m *matrix.Matrix) matrix.Summary {
	if s, ok := m.Summary(); ok {
		return s
	}
	if summarised != nil {
		summarised(m)
	}
	rows, cols := m.Rows(), m.Cols()
	blocks := make([]matrix.Summary, (rows+summaryBlockRows-1)/summaryBlockRows)
	// A block's work is the cells it stores.
	work := func(b int) int { return m.StoredBefore(min(rows, b*summaryBlockRows)) }
	matrix.Stripes(len(blocks), work, func(lo, hi int) int {
		for b := lo; b < hi; b++ {
			blocks[b] = summariseRows(m, b*summaryBlockRows, min(rows, (b+1)*summaryBlockRows))
		}
		return 0
	})
	h := fnv1a(fnvOffset)
	h.word(uint64(rows))
	h.word(uint64(cols))
	sumSq := 0.0
	for _, b := range blocks {
		h.word(b.Digest)
		sumSq += b.SumSq
	}
	s := matrix.Summary{Digest: uint64(h), SumSq: sumSq}
	m.SetSummary(s)
	return s
}

// summariseRows is the summary of one block, rows [lo, hi) of m.
func summariseRows(m *matrix.Matrix, lo, hi int) matrix.Summary {
	b := blockSummary{hash: fnvOffset}
	i := lo
	if m.Format() == matrix.Dense {
		for ; i+4 <= hi; i += 4 {
			_, r0 := m.StoredRow(i)
			_, r1 := m.StoredRow(i + 1)
			_, r2 := m.StoredRow(i + 2)
			_, r3 := m.StoredRow(i + 3)
			b.denseRows(r0, r1, r2, r3)
		}
	}
	for ; i < hi; i++ {
		b.row(m.StoredRow(i))
	}
	return matrix.Summary{Digest: b.hash, SumSq: b.sumSq}
}

// blockSummary is a block's running hash and Σx²; rows enter in row order.
type blockSummary struct {
	hash  uint64
	sumSq float64
}

func (b *blockSummary) add(rowHash uint64, rowSumSq float64) {
	b.hash = fold(b.hash, rowHash)
	b.sumSq += rowSumSq
}

// row takes one row in, as stored (matrix.StoredRow).
func (b *blockSummary) row(cols []int, vals []float64) {
	h, s := uint64(fnvOffset), 0.0
	for p, v := range vals {
		if v == 0 {
			continue // CSR may store explicit zeros; hash values, not storage
		}
		j := p
		if cols != nil {
			j = cols[p]
		}
		h = fold(fold(h, uint64(j)), math.Float64bits(v))
		s += v * v
	}
	b.add(h, s)
}

// denseRows takes four dense rows in, each exactly as row would: the lanes
// only share the loop, which keeps four multiply chains in flight.
func (b *blockSummary) denseRows(r0, r1, r2, r3 []float64) {
	h0, h1, h2, h3 := uint64(fnvOffset), uint64(fnvOffset), uint64(fnvOffset), uint64(fnvOffset)
	var s0, s1, s2, s3 float64
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for j, v := range r0 {
		if v != 0 {
			h0 = fold(fold(h0, uint64(j)), math.Float64bits(v))
			s0 += v * v
		}
		if v := r1[j]; v != 0 {
			h1 = fold(fold(h1, uint64(j)), math.Float64bits(v))
			s1 += v * v
		}
		if v := r2[j]; v != 0 {
			h2 = fold(fold(h2, uint64(j)), math.Float64bits(v))
			s2 += v * v
		}
		if v := r3[j]; v != 0 {
			h3 = fold(fold(h3, uint64(j)), math.Float64bits(v))
			s3 += v * v
		}
	}
	b.add(h0, s0)
	b.add(h1, s1)
	b.add(h2, s2)
	b.add(h3, s3)
}

// Digest is Summarise's digest: the identity of a block on the wire and of a
// result variable.
func Digest(m *matrix.Matrix) uint64 { return Summarise(m).Digest }

// DigestValues folds a set of named matrices into one result identity:
// names sorted, each name's bytes followed by its matrix's Digest. Two
// sets hash equal iff they bind the same names to matrices of the same
// shape holding the same nonzero cells bit for bit — Matrix.Equal's
// notion of equality, made a fingerprint. It inherits Digest's
// independence of storage format, and like a dense↔CSR conversion it does
// not preserve the sign of a zero, which is therefore not part of the
// identity. Result hashes (serve.QueryResult.ResultHash, the wire's
// result_hash, the benches' cross-arm checks) are this function.
func DigestValues(values map[string]*matrix.Matrix) uint64 {
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv1a(fnvOffset)
	for _, name := range names {
		for i := 0; i < len(name); i++ {
			h.byte(name[i])
		}
		h.word(Digest(values[name]))
	}
	return uint64(h)
}

// Corrupt returns a copy of m with CorruptedBit flipped in one stored
// nonzero value, selected from the corruption entropy bits. The original is
// never mutated (blocks are shared). ok is false when m holds no nonzero
// value to damage — an all-zero payload is inert.
func Corrupt(m *matrix.Matrix, bits uint64) (corrupted *matrix.Matrix, ok bool) {
	return m.FlipValueBit(int((bits>>8)&0x7FFFFFFF), CorruptedBit)
}

// abftRelTol scales the ABFT comparison tolerance by the checksum
// magnitudes. Legitimate re-association error of a column sum over n terms
// is about n·ε ≈ 1e-12 of the magnitude for our shapes; a CorruptedBit flip
// moves a checksum by at least ~2. 1e-9 sits squarely between.
const abftRelTol = 1e-9

// abftAbsTol is the comparison floor for near-zero checksums.
const abftAbsTol = 1e-12

// ColumnChecksum returns the column-sum vector 1ᵀm (length cols), the ABFT
// checksum a multiply's validation row is built from.
func ColumnChecksum(m *matrix.Matrix) []float64 {
	sums := make([]float64, m.Cols())
	m.ForEachNonzero(func(i, j int, v float64) {
		sums[j] += v
	})
	return sums
}

// ABFTCheck validates c against the checksum identity of c = a·b: the
// checksum row 1ᵀa propagated through b must equal the column sums of c
// within a scaled tolerance. Any NaN or Inf in either side fails the check —
// a comparison against poison must not silently pass.
func ABFTCheck(a, b, c *matrix.Matrix) bool {
	ca := ColumnChecksum(a) // length k: (1ᵀa)
	lhs := make([]float64, b.Cols())
	b.ForEachNonzero(func(i, j int, v float64) {
		lhs[j] += ca[i] * v
	})
	rhs := ColumnChecksum(c)
	if len(lhs) != len(rhs) {
		return false
	}
	for j := range lhs {
		d := lhs[j] - rhs[j]
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
		if math.Abs(d) > abftAbsTol+abftRelTol*(math.Abs(lhs[j])+math.Abs(rhs[j])) {
			return false
		}
	}
	return true
}

// ScanNonFinite reports the first NaN or Inf stored in m in row-major
// order. NaN compares unequal to zero, so dense poison is always visited.
func ScanNonFinite(m *matrix.Matrix) (row, col int, val float64, found bool) {
	m.ForEachNonzero(func(i, j int, v float64) {
		if found {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			row, col, val, found = i, j, v, true
		}
	})
	return row, col, val, found
}
