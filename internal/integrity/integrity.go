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

// fnv1a is the running FNV-1a state both digests below fold into.
type fnv1a uint64

func (h *fnv1a) byte(b byte) { *h = (*h ^ fnv1a(b)) * fnvPrime }

// word folds a whole 64-bit word in one xor-multiply step (Digest spends
// its whole time here; the byte-at-a-time fold cost eight dependent
// multiplies per word). A multiply only carries differences upward, so the
// xor-ed state is first rotated by half a word: a difference in the top
// bits — the sign and exponent bits corruption flips — lands in the low half
// and the multiply spreads it. Xor, rotate and multiply by an odd constant
// are each a bijection of the state, so two payloads that differ in one
// word can never fold to the same state.
func (h *fnv1a) word(x uint64) {
	*h = fnv1a(bits.RotateLeft64(uint64(*h)^x, 32)) * fnvPrime
}

// Digest folds a matrix's logical payload — dimensions, then (linear cell
// index, bits) for every stored value that is numerically nonzero — into a
// 64-bit FNV-style hash. It is the one function in the repository that walks
// matrix cells to hash them. Skipping explicit zeros makes the digest
// representation independent: a dense block and a CSR block holding the
// same values hash identically, so a format switch in transit is not a
// false corruption.
func Digest(m *matrix.Matrix) uint64 {
	h := fnv1a(fnvOffset)
	h.word(uint64(m.Rows()))
	h.word(uint64(m.Cols()))
	cols := m.Cols()
	m.ForEachNonzero(func(i, j int, v float64) {
		if v == 0 {
			return // CSR may store explicit zeros; hash values, not storage
		}
		h.word(uint64(i*cols + j))
		h.word(math.Float64bits(v))
	})
	return uint64(h)
}

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
