// Package cost implements the ReMac cost model of §4.2: every operator's
// cost is the sum of a computation term (w_flop · FLOP, sparsity-aware) and
// a transmission term (Σ w_pr · D_pr over the collect, broadcast, shuffle
// and dfs primitives). The model also encodes the SystemDS execution-mode
// decisions the runtime mirrors: local vs distributed placement and the
// choice between broadcast-based (BMM) and cross-product (CPMM)
// multiplication, whose very different communication profiles drive the
// paper's detrimental-elimination examples.
package cost

import (
	"fmt"
	"math"

	"remac/internal/cluster"
	"remac/internal/matrix"
	"remac/internal/sparsity"
)

// Method identifies the physical implementation an operator is costed at.
type Method int

const (
	// LocalOp executes in driver memory with no transmission.
	LocalOp Method = iota
	// BMM is broadcast-based matrix multiplication: the small side is
	// broadcast, products are aggregated by rows with a shuffle.
	BMM
	// CPMM is cross-product matrix multiplication: both sides shuffle to
	// join on the inner dimension, partial products shuffle to aggregate.
	CPMM
	// TSMM is the fused transpose-self multiplication t(X)·X SystemDS uses
	// when the output (cols²) is small enough for per-task accumulators:
	// one map pass over X, no shuffle of X at all.
	TSMM
	// ZipMM joins two co-partitioned distributed operands (one of them
	// skinny) without reshuffling the large side.
	ZipMM
	// DistEWise is a distributed element-wise or structural operator.
	DistEWise
	// CollectOp moves a distributed result into driver memory.
	CollectOp
	// DFSIO reads or writes the distributed filesystem.
	DFSIO
)

// String names the method as reported in experiment output.
func (m Method) String() string {
	switch m {
	case LocalOp:
		return "local"
	case BMM:
		return "BMM"
	case CPMM:
		return "CPMM"
	case TSMM:
		return "TSMM"
	case ZipMM:
		return "zipmm"
	case DistEWise:
		return "dist-ewise"
	case CollectOp:
		return "collect"
	case DFSIO:
		return "dfs"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Breakdown is the costed profile of one operator execution.
type Breakdown struct {
	ComputeSec  float64
	TransmitSec float64
	FLOP        float64
	// Bytes holds per-primitive data volumes, indexed by cluster.Primitive.
	Bytes  [4]float64
	Method Method
	// Local reports whether the operator ran in driver memory.
	Local bool
}

// Total returns compute + transmit seconds — c_O of Eq. 3.
func (b Breakdown) Total() float64 { return b.ComputeSec + b.TransmitSec }

// Plus returns the element-wise sum of two breakdowns (methods are kept
// from the receiver).
func (b Breakdown) Plus(o Breakdown) Breakdown {
	out := b
	out.ComputeSec += o.ComputeSec
	out.TransmitSec += o.TransmitSec
	out.FLOP += o.FLOP
	for i := range out.Bytes {
		out.Bytes[i] += o.Bytes[i]
	}
	return out
}

// Model evaluates operator costs for a cluster configuration using a
// sparsity estimator. The zero value is not usable; construct with NewModel.
type Model struct {
	cfg cluster.Config
	est sparsity.Estimator
}

// NewModel returns a cost model. A nil estimator defaults to the
// metadata-based one, matching stock SystemDS.
func NewModel(cfg cluster.Config, est sparsity.Estimator) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if est == nil {
		est = sparsity.Metadata{}
	}
	return &Model{cfg: cfg, est: est}
}

// Config returns the cluster configuration the model was built for.
func (m *Model) Config() cluster.Config { return m.cfg }

// Estimator returns the sparsity estimator in use.
func (m *Model) Estimator() sparsity.Estimator { return m.est }

// localBudget is the driver-memory fraction a single operand may occupy and
// still be placed locally. The same bound gates broadcast eligibility for
// BMM (executors hold one broadcast copy each).
func (m *Model) localBudget() float64 { return float64(m.cfg.DriverMemory) / 4 }

// resultCollectThreshold bounds how large a distributed operator's result
// may be and still be eagerly collected into the driver. Fat intermediate
// vectors above it stay distributed (as RDDs in SystemDS) and feed
// co-partitioned zipmm multiplications instead of collect/broadcast cycles.
const resultCollectThreshold = 64 << 20

// FitsLocal reports whether a value of this shape is placed in driver
// memory. Placement is a pure function of the modelled size, so compile-time
// planning and the runtime agree (SystemDS's dynamic local/distributed
// switching, §6.4). Engines without a local mode place nothing locally
// except scalars.
func (m *Model) FitsLocal(meta sparsity.Meta) bool {
	if m.cfg.NoLocalMode {
		return meta.Rows == 1 && meta.Cols == 1
	}
	return m.bytesOf(meta) <= m.localBudget()
}

// collectable reports whether an operator result is small enough to pull to
// the driver eagerly.
func (m *Model) collectable(meta sparsity.Meta) bool {
	if m.cfg.NoLocalMode {
		return meta.Rows == 1 && meta.Cols == 1
	}
	return m.bytesOf(meta) <= resultCollectThreshold
}

// bytesOf returns the modelled serialized size, honoring the dense-only
// storage of engines without sparse support.
func (m *Model) bytesOf(meta sparsity.Meta) float64 {
	if m.cfg.DenseOnly {
		return float64(matrix.SizeBytesFor(int(meta.Rows), int(meta.Cols), 1))
	}
	return bytesOf(meta)
}

// effSparsity is the sparsity kernels actually see (1 for dense-only
// engines).
func (m *Model) effSparsity(s float64) float64 {
	if m.cfg.DenseOnly {
		return 1
	}
	return s
}

// skinny reports whether a shape is a vector-like operand eligible for
// co-partitioned zipmm joins.
func skinny(meta sparsity.Meta, transposedSide bool) bool {
	if transposedSide {
		return meta.Rows <= 32
	}
	return meta.Cols <= 32
}

// overhead charges the fixed distributed-job latency on a breakdown.
func (m *Model) overhead(bd Breakdown) Breakdown {
	bd.ComputeSec += m.cfg.JobOverheadSec
	return bd
}

// localSpill charges disk re-reads for local operators whose working set
// exceeds driver memory: the overflow streams through the local disk. This
// is what makes repeated passes over a near-memory-sized dataset expensive
// on a single node (Fig 3b) while hoisted small intermediates stay fast.
func (m *Model) localSpill(workingSet float64) Breakdown {
	overflow := workingSet - float64(m.cfg.DriverMemory)
	if overflow <= 0 {
		return Breakdown{Local: true}
	}
	var bd Breakdown
	bd.Bytes[cluster.DFS] = overflow
	bd.TransmitSec = overflow / m.cfg.DiskBandwidth
	bd.Local = true
	return bd
}

// diskBacked charges per-worker disk re-reads for distributed operators
// whose per-worker input share exceeds the worker's caching budget: the
// RDD partitions beyond memory re-load from disk on every pass. On the
// seven-node testbed the evaluation datasets fit the aggregate cache, so
// this term only bites in the single-node setting (Fig 3b), where each
// pass over a 30-40 GB input streams from one disk.
func (m *Model) diskBacked(inputBytes float64) Breakdown {
	share := inputBytes / float64(m.cfg.Workers())
	budget := float64(float64(m.cfg.DriverMemory) / 2)
	overflow := share - budget
	if overflow <= 0 {
		return Breakdown{}
	}
	total := overflow * float64(m.cfg.Workers())
	var bd Breakdown
	bd.Bytes[cluster.DFS] = total
	bd.TransmitSec = total / (m.cfg.DiskBandwidth * float64(m.cfg.Workers()))
	return bd
}

// sparseFactor returns the kernel-efficiency penalty for an operand pair.
func (m *Model) sparseFactor(a, b sparsity.Meta) float64 {
	if m.cfg.DenseOnly {
		return 1
	}
	if a.Sparsity <= matrix.DenseThreshold || b.Sparsity <= matrix.DenseThreshold {
		return m.cfg.SparsePenalty
	}
	return 1
}

func bytesOf(meta sparsity.Meta) float64 {
	return float64(matrix.SizeBytesFor(int(meta.Rows), int(meta.Cols), meta.Sparsity))
}

func (m *Model) compute(flop float64, local bool) Breakdown {
	speed := m.cfg.ClusterFlops()
	if local {
		speed = m.cfg.LocalFlops()
	}
	return Breakdown{ComputeSec: flop / speed, FLOP: flop, Local: local}
}

func (m *Model) transmit(p cluster.Primitive, bytes float64) Breakdown {
	var b Breakdown
	if bytes <= 0 {
		return b
	}
	b.Bytes[p] = bytes
	b.TransmitSec = m.cfg.TransmitWeight(p) * bytes
	return b
}

// blocksAcross returns ceil(n / blockSize).
func (m *Model) blocksAcross(n int64) float64 {
	return math.Ceil(float64(n) / float64(m.cfg.BlockSize))
}

// Mul returns the estimated output metadata and cost of a·b given operand
// placements. It selects the physical method exactly as the runtime does.
func (m *Model) Mul(a, b sparsity.Meta, aLocal, bLocal bool) (sparsity.Meta, Breakdown, bool) {
	return m.MulHinted(a, b, aLocal, bLocal, false)
}

// MulHinted is Mul with a structural hint: tsmm marks a transpose-self
// product t(X)·X (or X·t(X)) over the same underlying matrix, which SystemDS
// fuses into a single pass when the output is at most one block wide.
func (m *Model) MulHinted(a, b sparsity.Meta, aLocal, bLocal, tsmm bool) (sparsity.Meta, Breakdown, bool) {
	out := m.est.Mul(a, b)
	flop := matrix.MulFLOP(int(a.Rows), int(a.Cols), int(b.Cols), m.effSparsity(a.Sparsity), m.effSparsity(b.Sparsity)) * m.sparseFactor(a, b)

	if aLocal && bLocal {
		bd := m.compute(flop, true)
		bd = bd.Plus(m.localSpill(m.bytesOf(a) + m.bytesOf(b) + m.bytesOf(out)))
		return out, bd, true
	}

	var bd Breakdown
	switch {
	case tsmm && out.Rows <= int64(m.cfg.BlockSize) && out.Cols <= int64(m.cfg.BlockSize):
		// One map pass over the distributed operand with a per-task
		// cols×cols accumulator; only the tiny partials tree-reduce.
		bd = m.compute(flop, false)
		bd = bd.Plus(m.transmit(cluster.Shuffle, m.bytesOf(out)*float64(m.cfg.Workers())))
		bd.Method = TSMM
	case !aLocal && !bLocal && skinny(b, false):
		// Right side is a fat distributed vector co-partitioned with a's
		// columns: join without reshuffling a.
		bd = m.zipmm(a, b, out, flop, false)
	case !aLocal && !bLocal && skinny(a, true):
		bd = m.zipmm(b, a, out, flop, true)
	case !aLocal && bLocal && m.FitsLocal(b):
		bd = m.bmm(a, b, out, flop, false)
	case aLocal && !bLocal && m.FitsLocal(a):
		bd = m.bmm(b, a, out, flop, true)
	default:
		bd = m.cpmm(a, b, out, flop)
	}
	bd = bd.Plus(m.diskBacked(m.bytesOf(a) + m.bytesOf(b)))
	bd = m.overhead(bd)

	// Small results are collected into driver memory so downstream local
	// operators can consume them; fat results stay distributed.
	outLocal := false
	if m.collectable(out) {
		bd = bd.Plus(m.transmit(cluster.Collect, m.bytesOf(out)))
		outLocal = true
	}
	return out, bd, outLocal
}

// MulLowerBound returns a lower bound on MulHinted(a, b, aLocal, bLocal,
// tsmm).Total() for either tsmm, from the operands alone: no output estimate
// is made. It is the compute charge every branch of MulHinted starts from —
// the input-sparsity FLOP at the local or cluster rate, plus the job
// overhead when distributed. Every branch only adds non-negative terms to it
// (transmits, spills, disk re-reads, CPMM's accumulation FLOP) or scales it
// by a factor ≥ 1 (CPMM's memory pressure), and rounded arithmetic is
// monotone, so the bound holds bit for bit: a planner may skip pricing a
// split whose bound already cannot win.
func (m *Model) MulLowerBound(a, b sparsity.Meta, aLocal, bLocal bool) float64 {
	flop := matrix.MulFLOP(int(a.Rows), int(a.Cols), int(b.Cols), m.effSparsity(a.Sparsity), m.effSparsity(b.Sparsity)) * m.sparseFactor(a, b)
	if aLocal && bLocal {
		return m.compute(flop, true).ComputeSec
	}
	return m.overhead(m.compute(flop, false)).ComputeSec
}

// zipmm joins a large distributed operand with a skinny distributed one
// that is (or can cheaply be made) co-partitioned: the skinny side shuffles
// once to align, partial results aggregate like Eq. 6.
func (m *Model) zipmm(big, small, out sparsity.Meta, flop float64, mirrored bool) Breakdown {
	bd := m.compute(flop, false)
	bd = bd.Plus(m.transmit(cluster.Shuffle, m.bytesOf(small)))
	bd = bd.Plus(m.transmit(cluster.Shuffle, m.eq6Shuffle(big, out, mirrored)))
	bd.Method = ZipMM
	return bd
}

// eq6Shuffle computes the Eq. 6 partial-aggregation shuffle volume for a
// product whose distributed side is dist: size(one block product) × B_U /
// P_U, where P_U blocks sharing rows pre-aggregate within a partition.
func (m *Model) eq6Shuffle(dist, out sparsity.Meta, mirrored bool) float64 {
	bs := int64(m.cfg.BlockSize)
	var blockProd sparsity.Meta
	if !mirrored {
		blockRows := dist.Rows
		if blockRows > bs {
			blockRows = bs
		}
		blockProd = sparsity.MetaDims(blockRows, out.Cols, out.Sparsity)
	} else {
		blockCols := dist.Cols
		if blockCols > bs {
			blockCols = bs
		}
		blockProd = sparsity.MetaDims(out.Rows, blockCols, out.Sparsity)
	}
	bR := m.blocksAcross(dist.Rows)
	bC := m.blocksAcross(dist.Cols)
	bU := bR * bC
	var pU float64
	if !mirrored {
		pU = math.Max(1, bC/float64(m.cfg.Workers()))
	} else {
		pU = math.Max(1, bR/float64(m.cfg.Workers()))
	}
	return m.bytesOf(blockProd) * bU / pU
}

// bmm costs a broadcast-based multiplication where dist is the distributed
// side and local the broadcast side. mirrored marks local·dist (the
// distributed side on the right); the communication structure is symmetric.
func (m *Model) bmm(dist, local, out sparsity.Meta, flop float64, mirrored bool) Breakdown {
	bd := m.compute(flop, false)
	bd = bd.Plus(m.transmit(cluster.Broadcast, m.bytesOf(local)))
	bd = bd.Plus(m.transmit(cluster.Shuffle, m.eq6Shuffle(dist, out, mirrored)))
	bd.Method = BMM
	return bd
}

// cpmm costs a cross-product multiplication: both operands shuffle to join
// on the inner dimension (spilling through local disk, hence the doubled
// volume), the partial result blocks (one per inner block stripe, bounded
// by the worker count) shuffle again to aggregate, and the dense partial
// accumulation adds outCells · bK / workers additions on top of the
// multiply FLOPs.
func (m *Model) cpmm(a, b, out sparsity.Meta, flop float64) Breakdown {
	bK := m.blocksAcross(a.Cols)
	accFlop := float64(out.Rows) * float64(out.Cols) * bK / float64(m.cfg.Workers())
	bd := m.compute(flop+accFlop, false)
	shuffle := 2 * (m.bytesOf(a) + m.bytesOf(b))
	replication := math.Min(bK, float64(m.cfg.Workers()))
	shuffle += float64(m.bytesOf(out) * replication)
	bd = bd.Plus(m.transmit(cluster.Shuffle, shuffle))

	// Accumulator memory pressure: every concurrent task holds a dense
	// partial of the output, so wide outputs (cols² beyond the worker
	// heap share) thrash through spill files. This term is what makes
	// AᵀA affordable on red2 (5K columns, ~200MB accumulators) but
	// prohibitive on cri2/cri3/red3 (8.7K-20K columns) — the column-count
	// correlation §6.2.2 reports.
	denseOut := float64(matrix.SizeBytesFor(int(out.Rows), int(out.Cols), 1))
	pressure := float64(denseOut * float64(m.cfg.CoresPerNode))
	budget := float64(m.cfg.DriverMemory) / 6
	if pressure > budget {
		factor := math.Min(8, 1+2*pressure/budget/3)
		bd.ComputeSec *= factor
		bd.TransmitSec *= factor
	}
	bd.Method = CPMM
	return bd
}

// EWiseKind distinguishes the element-wise operators the model costs.
type EWiseKind int

const (
	// EWAdd covers addition and subtraction.
	EWAdd EWiseKind = iota
	// EWMul is the Hadamard product.
	EWMul
	// EWDiv is element-wise division.
	EWDiv
	// EWSub is subtraction. It prices like EWAdd, but a self-subtraction
	// V − V yields an exactly empty result rather than the union sparsity
	// estimate (which would overestimate and propagate through downstream
	// metadata).
	EWSub
)

// EWiseSame prices an element-wise operator whose operands are the same
// distributed value (e.g. V ⊙ V): the partitions are already aligned, so
// no join shuffle is needed.
func (m *Model) EWiseSame(kind EWiseKind, a sparsity.Meta, aLocal bool) (sparsity.Meta, Breakdown, bool) {
	var out sparsity.Meta
	switch kind {
	case EWAdd, EWMul:
		out = a
	case EWSub:
		// V − V cancels exactly: the result is empty, not the union
		// estimate.
		out = sparsity.MetaDims(a.Rows, a.Cols, 0)
	default:
		out = sparsity.MetaDims(a.Rows, a.Cols, 1)
	}
	flop := 2 * a.NNZ()
	bd := m.compute(flop, aLocal)
	if !aLocal {
		bd.Method = DistEWise
		bd = m.overhead(bd)
		if m.collectable(out) {
			bd = bd.Plus(m.transmit(cluster.Collect, m.bytesOf(out)))
			return out, bd, true
		}
		return out, bd, false
	}
	bd = bd.Plus(m.localSpill(2 * m.bytesOf(a)))
	return out, bd, true
}

// EWise returns the metadata and cost of an element-wise binary operator.
func (m *Model) EWise(kind EWiseKind, a, b sparsity.Meta, aLocal, bLocal bool) (sparsity.Meta, Breakdown, bool) {
	var out sparsity.Meta
	switch kind {
	case EWAdd, EWSub:
		out = m.est.Add(a, b)
	case EWMul:
		out = m.est.ElemMul(a, b)
	default:
		out = sparsity.MetaDims(a.Rows, a.Cols, 1) // division densifies
	}
	flop := float64(a.Rows) * float64(a.Cols) * (a.Sparsity + b.Sparsity)
	local := aLocal && bLocal
	bd := m.compute(flop, local)
	if !local {
		// The smaller operand (or the local one) joins the larger: model a
		// shuffle of the smaller side.
		small := math.Min(m.bytesOf(a), m.bytesOf(b))
		bd = bd.Plus(m.transmit(cluster.Shuffle, small))
		bd = bd.Plus(m.diskBacked(m.bytesOf(a) + m.bytesOf(b)))
		bd.Method = DistEWise
		bd = m.overhead(bd)
		if m.collectable(out) {
			bd = bd.Plus(m.transmit(cluster.Collect, m.bytesOf(out)))
			return out, bd, true
		}
		return out, bd, false
	}
	return out, bd, true
}

// Transpose returns the metadata and cost of aᵀ. A distributed transpose
// re-keys every block, which shuffles the matrix once.
func (m *Model) Transpose(a sparsity.Meta, aLocal bool) (sparsity.Meta, Breakdown, bool) {
	out := m.est.Transpose(a)
	flop := a.NNZ()
	bd := m.compute(flop, aLocal)
	if !aLocal {
		bd = bd.Plus(m.transmit(cluster.Shuffle, m.bytesOf(a)))
		bd.Method = DistEWise
		bd = m.overhead(bd)
		return out, bd, false
	}
	return out, bd, true
}

// Scale returns the metadata and cost of s·a (or a±scalar).
func (m *Model) Scale(a sparsity.Meta, aLocal bool) (sparsity.Meta, Breakdown, bool) {
	out := m.est.Scale(a)
	bd := m.compute(a.NNZ(), aLocal)
	if !aLocal {
		bd.Method = DistEWise
		bd = m.overhead(bd)
	}
	return out, bd, aLocal
}

// AddScalar returns the metadata and cost of a + scalar on every element.
// The scalar broadcast writes every output cell, so the result is dense and
// the pass is priced on the densified output metadata — pricing on a sparse
// input would under-charge the densified result's volume.
func (m *Model) AddScalar(a sparsity.Meta, aLocal bool) (sparsity.Meta, Breakdown, bool) {
	out := sparsity.MetaDims(a.Rows, a.Cols, 1)
	bd := m.compute(out.NNZ(), aLocal)
	if !aLocal {
		bd.Method = DistEWise
		bd = m.overhead(bd)
	}
	return out, bd, aLocal
}

// Sum returns the metadata and cost of aggregating a matrix into a driver
// scalar: one pass over the nonzeros, plus — for distributed inputs — the
// collection of one 8-byte partial per worker.
func (m *Model) Sum(a sparsity.Meta, aLocal bool) (sparsity.Meta, Breakdown, bool) {
	out := sparsity.MetaDims(1, 1, 1)
	bd := m.compute(a.NNZ(), aLocal)
	if !aLocal {
		bd = bd.Plus(m.transmit(cluster.Collect, float64(8*m.cfg.Workers())))
		bd.Method = CollectOp
	}
	return out, bd, true
}

// DFSRead returns the cost of reading a matrix from the distributed
// filesystem and partitioning it (the input-partition phase of Fig 12: a
// dfs read plus a shuffle into hash partitions).
func (m *Model) DFSRead(a sparsity.Meta) Breakdown {
	bd := m.transmit(cluster.DFS, m.bytesOf(a))
	bd = bd.Plus(m.transmit(cluster.Shuffle, m.bytesOf(a)))
	bd.Method = DFSIO
	return bd
}

// DFSWrite returns the cost of persisting a distributed matrix to the
// distributed filesystem (the checkpoint write of the fault-recovery
// policy). Unlike DFSRead there is no partition shuffle: blocks are already
// hash-partitioned and each worker streams its own blocks to disk.
func (m *Model) DFSWrite(a sparsity.Meta) Breakdown {
	bd := m.transmit(cluster.DFS, m.bytesOf(a))
	bd.Method = DFSIO
	return bd
}

// SizeBytes exposes the modelled size of a shape (for reporting).
func SizeBytes(a sparsity.Meta) float64 { return bytesOf(a) }
