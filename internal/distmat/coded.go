package distmat

// Coded k-of-n recovery for distributed values (third recovery policy next
// to lineage recomputation and DFS checkpoints; DESIGN.md §14).
//
// A systematic low-weight erasure code splits a distributed matrix row-wise
// into k data groups and appends p = n-k parity blocks, each a sparse linear
// combination of a banded support of w = k-p+1 consecutive groups with
// Cauchy coefficients (any square coefficient submatrix is nonsingular, so
// every erasure pattern of ≤ p *covered* groups decodes; for the default
// k=4, n=6 every 1- and 2-erasure pattern is covered). Parity blocks are
// persisted to the fault-tolerant store at encode time — the coded analogue
// of a checkpoint, at parity cost instead of full-copy cost — so worker
// failures can only erase data groups.
//
// Like the other two policies, coded recovery only moves the clock: an
// injected fault loses no cell, so the result is the fault-free run's, bit
// for bit. What the code needs of the data is the parity blocks' nonzero
// count, which prices their DFS write; whether an erasure pattern decodes
// depends on the coefficients alone. Encode FLOP and DFS parity-write bytes
// are charged through the cluster clock as encode/parity spans, decode time
// and bytes through ChargeCodedDecode as recovery/coded-decode fault spans
// with FLOP 0 — decode is new work, not recomputation, so coded recovery
// keeps RecomputeFLOP at zero.

import (
	"math"
	"time"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/fault"
	"remac/internal/matrix"
	"remac/internal/sparsity"
)

// Default code parameters: 4 data groups, 2 parity blocks (tolerates any
// two worker failures between uses of a value with no recomputation).
const (
	DefaultCodedK = 4
	DefaultCodedN = 6
)

// minCodedK is the smallest usable group count; below it the code would
// degenerate to replication.
const minCodedK = 2

// EnableCoded turns on coded k-of-n recovery: every non-local value is
// encoded with p = n-k parity blocks when produced, and the cluster masks
// up to p straggling tasks per stage (their blocks are decoded from parity
// instead of waiting out the stretch). Panics on invalid parameters —
// engine.RecoveryPolicy validates before calling.
func (ctx *Context) EnableCoded(k, n int) {
	if k < minCodedK || n <= k {
		panic("distmat: EnableCoded requires n > k >= 2")
	}
	ctx.codedK, ctx.codedN = k, n
	ctx.Cluster.SetCoded(n - k)
}

// Coded reports whether coded recovery is enabled.
func (ctx *Context) Coded() bool { return ctx.codedK >= minCodedK }

// codedParity is the erasure-code state attached to one distributed value.
type codedParity struct {
	k, p      int
	weight    int     // support width of each parity block
	home      int     // data group g lives on worker (home+g) mod W
	groupRows int     // materialized rows per data group (last may be short)
	supports  [][]int // parity j combines data groups supports[j]
	coeffs    [][]float64
	meta      sparsity.Meta // virtual-scale parity block descriptor
}

// codedLayout builds the banded supports and Cauchy coefficients of the
// (k, p) code. Support j covers w = max(2, k-p+1) groups starting at
// j·ceil(k/p), so the supports stagger around the ring and jointly cover
// every group; coefficient c[j][i] = 1/(x_j - y_i) with distinct nodes
// x_j = k+j+1/2, y_i = i makes every square submatrix of the full
// coefficient matrix nonsingular (Cauchy), leaving only support coverage to
// limit decodability.
func codedLayout(k, p int) (supports [][]int, coeffs [][]float64, w int) {
	w = max(k-p+1, 2) // ≤ k, so a support never wraps onto itself
	stride := (k + p - 1) / p
	supports = make([][]int, p)
	coeffs = make([][]float64, p)
	for j := 0; j < p; j++ {
		for t := 0; t < w; t++ {
			g := (j*stride + t) % k
			supports[j] = append(supports[j], g)
			coeffs[j] = append(coeffs[j], 1/(float64(k+j)+0.5-float64(g)))
		}
	}
	return supports, coeffs, w
}

// coeffOf returns parity j's coefficient for group g (0 when g is outside
// the support).
func (cp *codedParity) coeffOf(j, g int) float64 {
	for t, sg := range cp.supports[j] {
		if sg == g {
			return cp.coeffs[j][t]
		}
	}
	return 0
}

// groupOf maps a materialized row to its data group.
func (cp *codedParity) groupOf(row int) int {
	g := row / cp.groupRows
	if g >= cp.k {
		g = cp.k - 1
	}
	return g
}

// codedSettle runs after every operator derivation (and after Read): it
// encodes parity for the freshly produced value and settles any straggler
// events the cluster masked against the coded stage — each masked straggler
// is charged the decode of one block from parity instead of the stretch (a
// single group is always covered, and the charge is the same for every
// group). Values that cannot carry parity (local, too small) settle masked
// stragglers by charging, retroactively, the one stretch the stage would
// have cost: stragglers idle in parallel, so several in one stage cost one
// stretch, as in the cluster's own charge.
func (ctx *Context) codedSettle(d *DistMatrix, bd cost.Breakdown) {
	if !ctx.Coded() {
		return
	}
	ctx.encodeParity(d)
	masked := ctx.masked
	ctx.masked = 0
	if d.parity != nil {
		for i := 0; i < masked; i++ {
			ctx.chargeDecode(d, 1)
		}
	} else if masked > 0 {
		sec := (fault.StragglerFactor - 1) * bd.Total()
		ctx.Cluster.ChargeRecovery(0, sec, [4]float64{})
		ctx.recordFault("fault", "fault/straggler", sec, 0, [4]float64{})
	}
}

// encodeParity attaches parity to a freshly produced non-local value and
// charges the encode: 2·w·nnz/k FLOP per parity block at virtual scale, plus
// the DFS write of the parity bytes at the parity's sparsity. The encode
// rides the producing stage (no extra job launch), so only compute and
// transmit time are charged.
func (ctx *Context) encodeParity(d *DistMatrix) {
	k, n := ctx.codedK, ctx.codedN
	p := n - k
	if d.local || d.parity != nil || d.data.Rows() < k {
		return
	}
	seq := ctx.codedSeq
	ctx.codedSeq++

	supports, coeffs, w := codedLayout(k, p)
	rows, cols := d.data.Rows(), d.data.Cols()
	gr := (rows + k - 1) / k
	cp := &codedParity{
		k: k, p: p, weight: w,
		home:      int(uint64(fault.DeriveSeed(seq, -1)) % uint64(ctx.Cluster.Config().Workers())),
		groupRows: gr,
		supports:  supports,
		coeffs:    coeffs,
	}

	start := time.Now()
	nnz := cp.parityNNZ(d.data)
	wall := time.Since(start)

	// Virtual-scale accounting: parity sparsity is that of the sample's
	// parity blocks (the low-weight code's sparsity preservation shows up
	// here — the bench reads it off the encode/parity span's Out shape).
	ps := float64(nnz) / (float64(p) * float64(gr) * float64(cols))
	cp.meta = sparsity.MetaDims((d.vMeta.Rows+int64(k)-1)/int64(k), d.vMeta.Cols, ps)
	cfg := ctx.Cluster.Config()
	flop := 2 * float64(w) * float64(p) * d.vMeta.NNZ() / float64(k)
	parityBytes := float64(p) * cost.SizeBytes(cp.meta)
	bd := cost.Breakdown{
		FLOP:       flop,
		ComputeSec: flop / cfg.ClusterFlops(),
		Method:     cost.DFSIO,
	}
	bd.Bytes[cluster.DFS] = parityBytes
	bd.TransmitSec = cfg.TransmitWeight(cluster.DFS) * parityBytes
	ctx.apply("encode", "encode/parity", bd, []sparsity.Meta{d.vMeta}, &cp.meta, wall)
	ctx.Cluster.AddEncodeFLOP(flop)
	d.parity = cp
}

// parityNNZ counts the nonzeros of m's p parity blocks without building
// them. Parity j's cell (r, c) sums the support groups' cells at row r of
// each group, column c, with nonzero coefficients, so it is nonzero where
// any of those groups is (unless nonzero terms cancel exactly): the count
// is the size of the union of the support groups' nonzero patterns. One
// pass over m marks, per cell of a group, which groups are nonzero there.
func (cp *codedParity) parityNNZ(m *matrix.Matrix) int {
	words := (cp.k + 63) / 64
	cols := m.Cols()
	cells := cp.groupRows * cols
	seen := make([]uint64, cells*words)
	m.ForEachNonzero(func(i, j int, _ float64) {
		g := cp.groupOf(i)
		seen[((i-g*cp.groupRows)*cols+j)*words+g/64] |= 1 << (g % 64)
	})
	nnz := 0
	for c := 0; c < cells; c++ {
		cell := seen[c*words : (c+1)*words]
		for _, sup := range cp.supports {
			for _, g := range sup {
				if cell[g/64]&(1<<(g%64)) != 0 {
					nnz++
					break
				}
			}
		}
	}
	return nnz
}

// repairCoded settles a coded value against the worker failures since it
// was last resident: data groups homed on failed workers are erased; if the
// code can reconstruct them (≤ p erasures with solvable supports) the value
// is charged the decode from parity with zero recomputation, otherwise the
// erased fraction falls back to lineage (or DFS re-read for inputs) like an
// uncoded value.
func (d *DistMatrix) repairCoded(from int) {
	ctx := d.ctx
	cp := d.parity
	w := ctx.Cluster.Config().Workers()
	failed := make(map[int]bool)
	for _, fw := range ctx.failLog[from:ctx.failEpoch] {
		if fw < 0 {
			fw = -fw
		}
		failed[fw%w] = true
	}
	rows := d.data.Rows()
	var erased []int
	for g := 0; g < cp.k; g++ {
		if g*cp.groupRows >= rows {
			break // short matrix: group holds no rows
		}
		if failed[(cp.home+g)%w] {
			erased = append(erased, g)
		}
	}
	if len(erased) == 0 {
		return
	}
	if len(erased) <= cp.p && cp.solvable(erased) {
		ctx.chargeDecode(d, len(erased))
		return
	}
	// Unrecoverable pattern (more erasures than surviving parity can
	// cover): the erased fraction recomputes from lineage, exactly like the
	// uncoded path, and the recompute FLOP is reported honestly.
	d.chargeLost(float64(len(erased)) / float64(cp.k))
}

// chargeDecode charges the decode of e erased data groups from parity at
// virtual scale: read e parity blocks back from DFS, combine them with the
// surviving groups (2·(w+1)·nnz/k FLOP per group), shuffle the rebuilt
// blocks to their new homes. The FLOP is decode work, not recomputation:
// its time lands in DecodeSec and the span carries FLOP 0, keeping
// RecomputeFLOP zero for coded recoveries. No cell is written — none was
// lost.
func (ctx *Context) chargeDecode(d *DistMatrix, e int) {
	cp := d.parity
	cfg := ctx.Cluster.Config()
	fe := float64(e)
	flop := 2 * (float64(cp.weight) + 1) * fe * d.vMeta.NNZ() / float64(cp.k)
	parityBytes := fe * cost.SizeBytes(cp.meta)
	reconBytes := fe / float64(cp.k) * cost.SizeBytes(d.vMeta)
	sec := flop/cfg.ClusterFlops() +
		float64(cfg.TransmitWeight(cluster.DFS)*parityBytes) +
		float64(cfg.TransmitWeight(cluster.Shuffle)*reconBytes)
	var bytes [4]float64
	bytes[cluster.DFS] = parityBytes
	bytes[cluster.Shuffle] = reconBytes
	ctx.Cluster.ChargeCodedDecode(sec, bytes)
	ctx.recordFault("recovery", "recovery/coded-decode", sec, 0, bytes)
}

// solvable reports whether some e of the p parity blocks have a
// nonsingular coefficient submatrix over the e erased groups, trying
// subsets in lexicographic order; false when none does (an erased group
// outside every surviving support).
func (cp *codedParity) solvable(erased []int) bool {
	e := len(erased)
	idx := make([]int, e)
	for i := range idx {
		idx[i] = i
	}
	for {
		a := make([][]float64, e)
		for r := 0; r < e; r++ {
			a[r] = make([]float64, e)
			for c, g := range erased {
				a[r][c] = cp.coeffOf(idx[r], g)
			}
		}
		if !singular(a) {
			return true
		}
		// Advance to the next e-combination of {0..p-1}.
		i := e - 1
		for i >= 0 && idx[i] == cp.p-e+i {
			i--
		}
		if i < 0 {
			return false
		}
		idx[i]++
		for j := i + 1; j < e; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// singular reports whether a small square matrix is singular: Gaussian
// elimination with partial pivoting meets a pivot below tolerance.
func singular(a [][]float64) bool {
	const tol = 1e-12
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < tol {
			return true
		}
		a[col], a[piv] = a[piv], a[col]
		p := a[col][col]
		for j := col; j < n; j++ {
			a[col][j] /= p
		}
		for r := col + 1; r < n; r++ {
			if a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := col; j < n; j++ {
				a[r][j] -= float64(f * a[col][j])
			}
		}
	}
	return false
}
