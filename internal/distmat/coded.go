package distmat

// Coded k-of-n recovery for distributed values (third recovery policy next
// to lineage recomputation and DFS checkpoints; DESIGN.md §15).
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
// Encoding is real: parity blocks are materialized from the sample data, so
// decoded values are numerically honest (bitwise-identical when every
// systematic block survives, tolerance-bounded float residue when the
// parity-decode path runs; the measured relative error is flagged on the
// recovery/coded-decode span). Costs are virtual like every other operator:
// encode FLOP and DFS parity-write bytes are charged through the cluster
// clock as encode/parity spans, decode time and bytes through
// ChargeCodedDecode as recovery/coded-decode fault spans with FLOP 0 —
// decode is new work, not recomputation, so coded recovery keeps
// RecomputeFLOP at zero.

import (
	"math"
	"time"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/fault"
	"remac/internal/matrix"
	"remac/internal/sparsity"
	"remac/internal/trace"
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
	blocks    []*matrix.Matrix // p materialized parity blocks, groupRows×cols
	meta      sparsity.Meta    // virtual-scale parity block descriptor
}

// codedLayout builds the banded supports and Cauchy coefficients of the
// (k, p) code. Support j covers w = max(2, k-p+1) groups starting at
// j·ceil(k/p), so the supports stagger around the ring and jointly cover
// every group; coefficient c[j][i] = 1/(x_j - y_i) with distinct nodes
// x_j = k+j+1/2, y_i = i makes every square submatrix of the full
// coefficient matrix nonsingular (Cauchy), leaving only support coverage to
// limit decodability.
func codedLayout(k, p int) (supports [][]int, coeffs [][]float64, w int) {
	w = k - p + 1
	if w < 2 {
		w = 2
	}
	if w > k {
		w = k
	}
	stride := (k + p - 1) / p
	supports = make([][]int, p)
	coeffs = make([][]float64, p)
	for j := 0; j < p; j++ {
		seen := make(map[int]bool, w)
		sup := make([]int, 0, w)
		cs := make([]float64, 0, w)
		for t := 0; t < w; t++ {
			g := (j*stride + t) % k
			if seen[g] {
				continue
			}
			seen[g] = true
			sup = append(sup, g)
			cs = append(cs, 1/(float64(k+j)+0.5-float64(g)))
		}
		supports[j] = sup
		coeffs[j] = cs
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
// decodes one block from parity instead of stretching the stage. Values
// that cannot carry parity (local, too small) settle masked stragglers by
// charging the stretch they would have cost retroactively.
func (ctx *Context) codedSettle(d *DistMatrix, bd cost.Breakdown) {
	if !ctx.Coded() {
		return
	}
	ctx.encodeParity(d)
	if len(ctx.masked) == 0 {
		return
	}
	masked := ctx.masked
	ctx.masked = nil
	for i, factor := range masked {
		if d.parity != nil {
			// The straggling task's output block is reconstructed from the
			// stage's parity outputs (encoding commutes with the linear
			// stage, so output parity is available without the slow task).
			g := int(uint64(fault.DeriveSeed(ctx.codedSeq, i)) % uint64(d.parity.k))
			ctx.decodeGroups(d, []int{g})
			continue
		}
		// No parity to decode from: the stage waited out the straggler
		// after all; charge the stretch it masked too early.
		sec := (factor - 1) * bd.Total()
		ctx.Cluster.ChargeRecovery(0, sec, [4]float64{})
		ctx.recordFault("fault", "fault/straggler", sec, 0, [4]float64{})
	}
}

// encodeParity materializes the p parity blocks of a freshly produced
// non-local value and charges the encode honestly: 2·w·nnz/k FLOP per
// parity block at virtual scale, plus the DFS write of the parity bytes.
// The encode rides the producing stage (no extra job launch), so only
// compute and transmit time are charged.
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
	bufs := make([][]float64, p)
	for j := range bufs {
		bufs[j] = make([]float64, gr*cols)
	}
	d.data.ForEachNonzero(func(i, j int, v float64) {
		g := cp.groupOf(i)
		lr := i - g*gr
		for pj := 0; pj < p; pj++ {
			if c := cp.coeffOf(pj, g); c != 0 {
				bufs[pj][lr*cols+j] += c * v
			}
		}
	})
	nnz := 0
	cp.blocks = make([]*matrix.Matrix, p)
	for j := range bufs {
		b := matrix.NewDenseData(gr, cols, bufs[j]).Compact()
		nnz += b.NNZ()
		cp.blocks[j] = b
	}
	wall := time.Since(start)

	// Virtual-scale accounting: parity sparsity is measured from the real
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

// repairCoded settles a coded value against the worker failures since it
// was last resident: data groups homed on failed workers are erased; if the
// code can reconstruct them (≤ p erasures with solvable supports) the value
// decodes from parity with zero recomputation, otherwise the erased
// fraction falls back to lineage (or DFS re-read for inputs) like an
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
	if ctx.decodeGroups(d, erased) {
		return
	}
	// Unrecoverable pattern (more erasures than surviving parity can
	// cover): the erased fraction recomputes from lineage, exactly like the
	// uncoded path, and the recompute FLOP is reported honestly.
	lost := float64(len(erased)) / float64(cp.k)
	bd, label := d.prod, "recovery/lineage"
	if d.ckpt {
		bd, label = ctx.Model.DFSRead(d.vMeta), "recovery/checkpoint"
	} else if bd.FLOP == 0 && bd.Total() == 0 {
		bd, label = ctx.Model.DFSRead(d.vMeta), "recovery/dfs-read"
	}
	var bytes [4]float64
	for i := range bytes {
		bytes[i] = bd.Bytes[i] * lost
	}
	flop := bd.FLOP * lost
	sec := bd.Total() * lost
	ctx.Cluster.ChargeRecovery(flop, sec, bytes)
	ctx.recordFault("recovery", label, sec, flop, bytes)
}

// decodeGroups reconstructs the erased data groups from parity: for each
// chosen parity block, the known groups' contributions are subtracted,
// leaving a linear system in the erased groups whose Cauchy coefficient
// submatrix is inverted by Gaussian elimination. Returns false (charging
// nothing) when no parity subset covers the erasures. On success the
// decoded rows replace the erased ones in a fresh matrix (values may be
// shared across caches — never mutated in place), the decode seconds and
// bytes are charged through ChargeCodedDecode, and the measured relative
// error is flagged on the recovery/coded-decode span.
func (ctx *Context) decodeGroups(d *DistMatrix, erased []int) bool {
	cp := d.parity
	e := len(erased)
	if e == 0 {
		return true
	}
	if e > cp.p {
		return false
	}
	start := time.Now()
	choice, inv := cp.solvableSubset(erased)
	if choice == nil {
		return false
	}
	rows, cols := d.data.Rows(), d.data.Cols()
	gr := cp.groupRows

	// RHS_r = parity_r - Σ_{known g ∈ support_r} c[r][g]·G_g.
	erasedSet := make(map[int]bool, e)
	for _, g := range erased {
		erasedSet[g] = true
	}
	rhs := make([][]float64, e)
	for r, pj := range choice {
		buf := make([]float64, gr*cols)
		cp.blocks[pj].ForEachNonzero(func(i, j int, v float64) {
			buf[i*cols+j] = v
		})
		d.data.ForEachNonzero(func(i, j int, v float64) {
			g := cp.groupOf(i)
			if erasedSet[g] {
				return
			}
			if c := cp.coeffOf(pj, g); c != 0 {
				buf[(i-g*gr)*cols+j] -= c * v
			}
		})
		rhs[r] = buf
	}

	// X_c = Σ_r inv[c][r]·RHS_r, written over the erased rows of a copy.
	out := d.data.ToDense()
	if out == d.data {
		out = out.Clone()
	}
	var maxDiff, maxOrig float64
	for c, g := range erased {
		lo := g * gr
		hi := lo + gr
		if hi > rows {
			hi = rows
		}
		for i := lo; i < hi; i++ {
			lr := i - lo
			for j := 0; j < cols; j++ {
				var x float64
				for r := range choice {
					x += inv[c][r] * rhs[r][lr*cols+j]
				}
				orig := d.data.At(i, j)
				if diff := math.Abs(x - orig); diff > maxDiff {
					maxDiff = diff
				}
				if a := math.Abs(orig); a > maxOrig {
					maxOrig = a
				}
				out.Set(i, j, x)
			}
		}
	}
	relErr := maxDiff
	if maxOrig > 0 {
		relErr = maxDiff / maxOrig
	}
	d.data = out.Compact()
	wall := time.Since(start)

	// Virtual-scale decode charge: read the chosen parity blocks back from
	// DFS, combine them with the surviving groups (2·(w+1)·nnz/k FLOP per
	// reconstructed group), shuffle the rebuilt blocks to their new homes.
	// The FLOP is decode work, not recomputation: its time lands in
	// DecodeSec and the span carries FLOP 0, keeping RecomputeFLOP zero
	// for coded recoveries.
	cfg := ctx.Cluster.Config()
	fe := float64(e)
	flop := 2 * (float64(cp.weight) + 1) * fe * d.vMeta.NNZ() / float64(cp.k)
	parityBytes := fe * cost.SizeBytes(cp.meta)
	reconBytes := fe / float64(cp.k) * cost.SizeBytes(d.vMeta)
	sec := flop/cfg.ClusterFlops() +
		cfg.TransmitWeight(cluster.DFS)*parityBytes +
		cfg.TransmitWeight(cluster.Shuffle)*reconBytes
	var bytes [4]float64
	bytes[cluster.DFS] = parityBytes
	bytes[cluster.Shuffle] = reconBytes
	ctx.Cluster.ChargeCodedDecode(sec, bytes)
	if ctx.Recorder != nil {
		sp := trace.FaultOp("recovery", "recovery/coded-decode", sec, 0, bytes)
		sp.RelErr = relErr
		sp.WallNS = wall.Nanoseconds()
		ctx.Recorder.Record(sp)
	}
	return true
}

// solvableSubset picks e of the p parity blocks whose coefficient submatrix
// over the erased groups is invertible, returning the chosen parity indices
// and the inverse. Subsets are tried in lexicographic order; nil when none
// is solvable (an erased group outside every surviving support).
func (cp *codedParity) solvableSubset(erased []int) ([]int, [][]float64) {
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
		if inv := invertSmall(a); inv != nil {
			return append([]int(nil), idx...), inv
		}
		// Advance to the next e-combination of {0..p-1}.
		i := e - 1
		for i >= 0 && idx[i] == cp.p-e+i {
			i--
		}
		if i < 0 {
			return nil, nil
		}
		idx[i]++
		for j := i + 1; j < e; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// invertSmall inverts a small dense matrix by Gauss-Jordan elimination with
// partial pivoting; nil when singular (pivot below tolerance).
func invertSmall(a [][]float64) [][]float64 {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, 2*n)
		copy(m[i], a[i])
		m[i][n+i] = 1
	}
	const tol = 1e-12
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < tol {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		p := m[col][col]
		for j := col; j < 2*n; j++ {
			m[col][j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := col; j < 2*n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = m[i][n : 2*n]
	}
	return inv
}
