// Package cluster simulates the distributed execution environment the paper
// evaluates on: a Spark cluster of commodity nodes connected by 1 Gbps
// Ethernet, with matrices hash-partitioned into fixed-size blocks.
//
// The simulator does not move bytes over a real network. Instead, every
// distributed operator charges the cluster for the compute (FLOP) and
// transmission (collect / broadcast / shuffle / dfs) it would perform, and
// the cluster maintains a simulated wall clock derived from the hardware
// constants. This is the substitution documented in DESIGN.md: the paper's
// findings are about plan choice, and plan rankings depend only on these
// cost terms, which are accounted byte- and FLOP-accurately.
package cluster

import (
	"fmt"
	"math"
	"sync"

	"remac/internal/fault"
)

// Primitive enumerates the four transmission primitives of the cost model
// (§4.2): collection of data to the driver, broadcast of data to the
// cluster, shuffle among nodes, and distributed-filesystem I/O.
type Primitive int

const (
	Collect Primitive = iota
	Broadcast
	Shuffle
	DFS
	numPrimitives
)

// Primitives lists all transmission primitives in declaration order.
var Primitives = []Primitive{Collect, Broadcast, Shuffle, DFS}

// String returns the paper's name for the primitive.
func (p Primitive) String() string {
	switch p {
	case Collect:
		return "collect"
	case Broadcast:
		return "broadcast"
	case Shuffle:
		return "shuffle"
	case DFS:
		return "dfs"
	default:
		return fmt.Sprintf("Primitive(%d)", int(p))
	}
}

// Config describes the simulated cluster topology and speeds. The defaults
// mirror the paper's testbed: seven nodes, each with two six-core 2 GHz
// Xeons, 32 GB DRAM, one hard disk, 1 Gbps Ethernet.
type Config struct {
	Nodes         int     // worker nodes (one also hosts the driver)
	CoresPerNode  int     // physical cores per node
	FlopsPerCore  float64 // peak double-precision FLOP/s per core
	NetBandwidth  float64 // per-link network bandwidth, bytes/s
	DiskBandwidth float64 // per-node dfs bandwidth, bytes/s
	DriverMemory  int64   // bytes of driver heap for local-mode execution
	BlockSize     int     // square block edge for partitioned matrices
	// Efficiency scales peak FLOP/s down to attainable throughput for
	// memory-bound matrix kernels (BLAS on commodity Xeons reaches a
	// fraction of peak; sparse kernels much less).
	Efficiency float64
	// JobOverheadSec is the fixed scheduling/launch latency of one
	// distributed operator (Spark stage submission, task dispatch). Local
	// operators pay nothing. This term is what makes many small
	// distributed operations costlier than one hoisted computation.
	JobOverheadSec float64
	// SparsePenalty divides the attainable FLOP/s for sparse kernels
	// (irregular access patterns run far below dense GEMM throughput).
	SparsePenalty float64
	// NoLocalMode disables driver-local execution: every operator runs
	// distributed (pbdR and SciDB, §6.4, "keep running in distributed
	// mode").
	NoLocalMode bool
	// DenseOnly treats every matrix as dense (pbdR "treats sparse matrices
	// as dense ones").
	DenseOnly bool
}

// DefaultConfig returns the paper's seven-node testbed.
func DefaultConfig() Config {
	return Config{
		Nodes:          7,
		CoresPerNode:   12,
		FlopsPerCore:   8e9,   // 2 GHz × 4-wide FMA
		NetBandwidth:   125e6, // 1 Gbps
		DiskBandwidth:  150e6,
		DriverMemory:   20 << 30, // usable fraction of 32 GB
		BlockSize:      1000,
		Efficiency:     0.1,
		JobOverheadSec: 0.8,
		SparsePenalty:  6,
	}
}

// SingleNodeConfig returns the §6 single-node comparison environment with
// generous memory ("a single-node environment with sufficient memory").
func SingleNodeConfig() Config {
	c := DefaultConfig()
	c.Nodes = 1
	// One 32 GB node: enough memory to run (the paper's "sufficient
	// memory") but not enough to keep a 30 GB dataset plus intermediates
	// resident — operands beyond this budget re-read from disk, which is
	// exactly why hoisting AᵀA/ddᵀ pays off on a single node (Fig 3b).
	c.DriverMemory = 24 << 30
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: Nodes = %d, need >= 1", c.Nodes)
	case c.CoresPerNode < 1:
		return fmt.Errorf("cluster: CoresPerNode = %d, need >= 1", c.CoresPerNode)
	case c.FlopsPerCore <= 0:
		return fmt.Errorf("cluster: FlopsPerCore = %g, need > 0", c.FlopsPerCore)
	case c.NetBandwidth <= 0:
		return fmt.Errorf("cluster: NetBandwidth = %g, need > 0", c.NetBandwidth)
	case c.DiskBandwidth <= 0:
		return fmt.Errorf("cluster: DiskBandwidth = %g, need > 0", c.DiskBandwidth)
	case c.BlockSize < 1:
		return fmt.Errorf("cluster: BlockSize = %d, need >= 1", c.BlockSize)
	case c.Efficiency <= 0 || c.Efficiency > 1:
		return fmt.Errorf("cluster: Efficiency = %g, need (0,1]", c.Efficiency)
	case c.DriverMemory < 0:
		return fmt.Errorf("cluster: DriverMemory = %d, need >= 0", c.DriverMemory)
	case c.JobOverheadSec < 0:
		return fmt.Errorf("cluster: JobOverheadSec = %g, need >= 0", c.JobOverheadSec)
	case c.SparsePenalty < 1:
		return fmt.Errorf("cluster: SparsePenalty = %g, need >= 1", c.SparsePenalty)
	}
	return nil
}

// Workers returns the number of parallel workers (paper: six Spark workers
// on seven nodes — one node hosts the driver; with a single node, the one
// node does both).
func (c Config) Workers() int {
	if c.Nodes <= 1 {
		return 1
	}
	return c.Nodes - 1
}

// ClusterFlops returns the aggregate attainable FLOP/s of all workers.
func (c Config) ClusterFlops() float64 {
	return float64(c.Workers()*c.CoresPerNode) * c.FlopsPerCore * c.Efficiency
}

// LocalFlops returns the attainable FLOP/s of the driver node alone.
func (c Config) LocalFlops() float64 {
	return float64(c.CoresPerNode) * c.FlopsPerCore * c.Efficiency
}

// TransmitWeight returns w_pr of Eq. 5 — the reciprocal of the effective
// transmission speed of the primitive, in seconds per byte. On a single
// node the network primitives degenerate to in-memory copies; only disk
// I/O keeps its cost.
func (c Config) TransmitWeight(p Primitive) float64 {
	if c.Workers() == 1 && p != DFS {
		const memCopyBandwidth = 10e9
		return 1 / memCopyBandwidth
	}
	switch p {
	case Collect:
		// Everything funnels into the driver's single link.
		return 1 / c.NetBandwidth
	case Broadcast:
		// Torrent-style broadcast: pipelined across workers, bounded by a
		// single link but not multiplied by the full fan-out.
		return 1.5 / c.NetBandwidth
	case Shuffle:
		// All-to-all exchange proceeds on every link in parallel.
		return 1 / (c.NetBandwidth * float64(c.Workers()))
	case DFS:
		// Reads/writes are striped across the nodes' disks.
		return 1 / (c.DiskBandwidth * float64(c.Workers()))
	default:
		panic(fmt.Sprintf("cluster: unknown primitive %d", p))
	}
}

// Stats accumulates the simulated execution costs of a program run.
type Stats struct {
	FLOP         float64                // total floating point operations
	ComputeTime  float64                // seconds
	TransmitTime float64                // seconds
	Bytes        [numPrimitives]float64 // per-primitive data volume
	WorkerBytes  []float64              // per-worker processed data volume
	Ops          int                    // operator executions charged

	// Fault-injection accounting (all zero on a perfect cluster).
	Retries       int     // retry attempts after transmission errors
	RecoverySec   float64 // backoff, retransmission, straggling and recomputation seconds
	RecomputeFLOP float64 // FLOP re-executed to rebuild lost blocks (not in FLOP)
	FailedWorkers int     // worker-failure events injected

	// Integrity accounting (all zero unless corruption was injected or a
	// verification mode enabled; see internal/integrity).
	CorruptionsInjected int     // corruption events that landed on a payload
	CorruptionsDigest   int     // corruptions caught by a block digest
	CorruptionsABFT     int     // corruptions caught by ABFT checksum validation
	IntegrityRepairs    int     // lineage repair attempts for corrupted blocks
	RepairSec           float64 // repair attempt seconds (included in RecoverySec)
	VerifySec           float64 // digest/ABFT/scan seconds (included in ComputeTime)

	// Coded-recovery accounting (all zero unless the coded recovery policy
	// is enabled; see internal/distmat's coded layer).
	CodedRecoveries int     // k-of-n decode recoveries (no recomputation)
	DecodeSec       float64 // decode seconds (included in RecoverySec)
	EncodeFLOP      float64 // parity encoding FLOP (included in FLOP)
}

// TotalTime returns the simulated wall-clock seconds, recovery included.
func (s Stats) TotalTime() float64 { return s.ComputeTime + s.TransmitTime + s.RecoverySec }

// BytesFor returns the accumulated volume of one primitive.
func (s Stats) BytesFor(p Primitive) float64 { return s.Bytes[p] }

// TotalBytes returns the volume across all primitives.
func (s Stats) TotalBytes() float64 {
	t := 0.0
	for _, b := range s.Bytes {
		t += b
	}
	return t
}

// Cluster is a simulated cluster: a configuration plus a mutable cost
// accumulator. It is safe for concurrent use.
type Cluster struct {
	cfg Config

	mu    sync.Mutex
	stats Stats
	inj   *fault.Injector
	// onFault receives the accounted consequence of each fired event, after
	// the cluster's own bookkeeping and outside the lock (the observer may
	// charge recovery back into the cluster).
	onFault func(FaultCharge)
	// codedSpare is the number of parity blocks (n−k) of the coded recovery
	// policy; when positive, up to codedSpare stragglers per charge are
	// masked (the stage takes the first k-of-n completions) and forwarded to
	// the observer for decode settlement instead of stretching the operator.
	codedSpare int
}

// New returns a cluster for the configuration. It panics on an invalid
// configuration (programmer error); CLI front-ends should use NewChecked.
func New(cfg Config) *Cluster {
	c, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewChecked returns a cluster for the configuration, or the validation
// error for an invalid one.
func NewChecked(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, stats: Stats{WorkerBytes: make([]float64, cfg.Workers())}}, nil
}

// FaultCharge is the accounted consequence of one fired fault event: the
// recovery seconds and retransmitted bytes the cluster added to its stats.
type FaultCharge struct {
	Event       fault.Event
	RecoverySec float64
	Bytes       [numPrimitives]float64
	// CodedMasked marks a straggler absorbed by the coded policy's spare
	// blocks: the cluster charged nothing, and the runtime settles the
	// k-of-n decode of the charging operator instead (see SetCoded).
	CodedMasked bool
}

// SetFaults attaches a fault plan. Every subsequent Charge* call advances
// the plan's injector across the charge's clock window and accounts the
// fired events: stragglers stretch the charged operator, transmission
// errors retry the failed task (capped exponential backoff plus one
// worker's share of the transmission), and worker
// failures are counted for the runtime's lazy lineage recovery. observer
// (optional) is invoked once per fired event, outside the cluster lock.
// A nil plan detaches fault injection.
func (c *Cluster) SetFaults(p *fault.Plan, observer func(FaultCharge)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inj = p.NewInjector()
	c.onFault = observer
}

// SetCoded enables (spare > 0) or disables (spare <= 0) coded straggler
// masking: with p = n−k spare blocks per coded operator, a stage needs only
// the first k of its n block tasks, so up to p stragglers per charge are
// absorbed — no stretch is charged, and the masked event is forwarded to
// the fault observer (CodedMasked set) for the runtime to settle the decode.
// Stragglers beyond the spare budget stretch the operator as usual.
func (c *Cluster) SetCoded(spare int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if spare < 0 {
		spare = 0
	}
	c.codedSpare = spare
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// profile is the priced shape of one charge, shared by every Charge* entry
// point so fault handling sees a uniform view of the operator.
type profile struct {
	flop        float64
	computeSec  float64
	transmitSec float64
	bytes       [numPrimitives]float64
	countOp     bool
}

func (p profile) totalSec() float64 { return p.computeSec + p.transmitSec }

// ChargeProfile adds a fully-priced operator execution: the times are taken
// as given rather than recomputed from rates, because the cost model may
// include penalties (job overhead, sparse-kernel efficiency, spill factors)
// that plain rate arithmetic would drop.
func (c *Cluster) ChargeProfile(flop, computeSec, transmitSec float64, bytes []float64) {
	prof := profile{flop: flop, computeSec: computeSec, transmitSec: transmitSec, countOp: true}
	for i, b := range bytes {
		if i < len(prof.bytes) {
			prof.bytes[i] += b
		}
	}
	c.charge(prof)
}

// charge applies one priced profile and, when a fault plan is attached,
// fires the events falling inside the charge's clock window. The injection
// window is measured on the work clock (compute + transmit, excluding
// RecoverySec): fault rates expose useful work only, so recovery time never
// breeds further faults and the accounting cannot feed back on itself (with
// per-hour rates above an operator's inverse duration, a total clock
// including recovery would otherwise diverge).
func (c *Cluster) charge(prof profile) {
	c.mu.Lock()
	before := c.stats.ComputeTime + c.stats.TransmitTime
	c.stats.FLOP += prof.flop
	c.stats.ComputeTime += prof.computeSec
	c.stats.TransmitTime += prof.transmitSec
	for i, b := range prof.bytes {
		c.stats.Bytes[i] += b
	}
	if prof.countOp {
		c.stats.Ops++
	}
	var fired []FaultCharge
	if c.inj != nil {
		fired = c.injectLocked(before, c.stats.ComputeTime+c.stats.TransmitTime, prof)
	}
	observer := c.onFault
	c.mu.Unlock()
	if observer != nil {
		for _, fc := range fired {
			observer(fc)
		}
	}
}

// maxBackoffDoublings caps the retry delay at base·2⁶, the usual bound in
// capped-exponential-backoff retry policies.
const maxBackoffDoublings = 6

// injectLocked accounts the fault events in the window (from, to]: the
// retry/backoff/straggling costs land in RecoverySec (so the clock keeps
// advancing deterministically) and retransmitted bytes in Bytes. Worker
// failures are only counted here — the lost blocks are lazily recomputed by
// the runtime when next used (see distmat's lineage repair). Recovery
// charges themselves are not re-injected, so a fault can never cascade
// unboundedly within one charge.
func (c *Cluster) injectLocked(from, to float64, prof profile) []FaultCharge {
	events := c.inj.Advance(from, to)
	if len(events) == 0 {
		return nil
	}
	fired := make([]FaultCharge, 0, len(events))
	retries := 0
	stretched := false
	masked := 0
	for _, ev := range events {
		fc := FaultCharge{Event: ev}
		switch ev.Kind {
		case fault.Straggler:
			// Under the coded policy a stage completes on the first k of
			// its n block tasks, so the first n−k stragglers of a charge
			// are absorbed: no stretch, just the decode the runtime settles
			// from the forwarded event.
			if masked < c.codedSpare {
				masked++
				fc.CodedMasked = true
				break
			}
			// The stage waits on its slowest task: the operator stretches
			// to StragglerFactor. Straggling tasks idle in parallel, so
			// several stragglers within one charge cost one stretch, not
			// the sum.
			if !stretched {
				fc.RecoverySec = (fault.StragglerFactor - 1) * prof.totalSec()
				stretched = true
			}
		case fault.TransmissionError:
			// Capped exponential backoff per consecutive retry of one
			// operator, then re-execute the transmission (or, for
			// compute-only operators, re-run the task). Without the cap a
			// long operator collecting tens of errors in one charge would
			// owe 2^tens delays.
			exp := retries
			if exp > maxBackoffDoublings {
				exp = maxBackoffDoublings
			}
			delay := float64(fault.BackoffBaseSec * math.Pow(2, float64(exp)))
			retries++
			// One in-flight task fails, so one worker's share of the
			// operator re-runs — stages retry tasks, not themselves.
			w := float64(c.cfg.Workers())
			if prof.transmitSec > 0 {
				fc.RecoverySec = delay + prof.transmitSec/w
				for i, b := range prof.bytes {
					fc.Bytes[i] = b / w
				}
			} else {
				fc.RecoverySec = delay + prof.computeSec/w
			}
			c.stats.Retries++
		case fault.WorkerFailure:
			c.stats.FailedWorkers++
		case fault.Corruption:
			// Corruption carries no intrinsic charge: whether the flipped
			// payload bit costs a repair or a wrong answer is decided by the
			// runtime's verification layer, which observes the forwarded
			// event (see distmat's integrity settlement).
		}
		c.stats.RecoverySec += fc.RecoverySec
		for i, b := range fc.Bytes {
			c.stats.Bytes[i] += b
		}
		fired = append(fired, fc)
	}
	return fired
}

// ChargeRecovery accounts lineage or checkpoint recovery work performed by
// the runtime after a worker failure: sec lands in RecoverySec, flop in
// RecomputeFLOP and bytes in the per-primitive volumes. Recovery charges
// deliberately do not consult the fault injector.
func (c *Cluster) ChargeRecovery(flop, sec float64, bytes [4]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.RecomputeFLOP += flop
	c.stats.RecoverySec += sec
	for i, b := range bytes {
		c.stats.Bytes[i] += b
	}
}

// ChargeCodedDecode accounts one k-of-n decode recovery performed by the
// runtime's coded layer: sec lands in RecoverySec and the DecodeSec
// attribution, bytes (reconstructed blocks re-shuffled to their homes) in
// the per-primitive volumes, and the recovery is counted. No FLOP is
// recomputed — that is the point of the coded policy. Like ChargeRecovery,
// decode charges do not consult the fault injector.
func (c *Cluster) ChargeCodedDecode(sec float64, bytes [4]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.RecoverySec += sec
	c.stats.DecodeSec += sec
	c.stats.CodedRecoveries++
	for i, b := range bytes {
		c.stats.Bytes[i] += b
	}
}

// AddEncodeFLOP attributes parity-encoding work to the EncodeFLOP counter.
// Like the integrity attributions it only moves a counter: the encoding
// seconds, FLOP and bytes are charged through ChargeProfile, so reports can
// split the coded policy's overhead out of the totals without double-booking.
func (c *Cluster) AddEncodeFLOP(flop float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.EncodeFLOP += flop
}

// IntegrityCharge attributes integrity-layer outcomes to the stats counters.
// It only moves counters: the underlying seconds are charged through
// ChargeProfile (verification work) and ChargeRecovery (repairs), so the
// attribution fields let reports split totals without double-booking time.
type IntegrityCharge struct {
	Injected  int     // corruption events that landed on a payload
	ByDigest  int     // caught by a block digest
	ByABFT    int     // caught by ABFT checksum validation
	Repairs   int     // lineage repair attempts
	RepairSec float64 // seconds of those attempts (already in RecoverySec)
	VerifySec float64 // verification seconds (already in ComputeTime)
}

// AddIntegrity accumulates integrity attribution counters.
func (c *Cluster) AddIntegrity(ic IntegrityCharge) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.CorruptionsInjected += ic.Injected
	c.stats.CorruptionsDigest += ic.ByDigest
	c.stats.CorruptionsABFT += ic.ByABFT
	c.stats.IntegrityRepairs += ic.Repairs
	c.stats.RepairSec += ic.RepairSec
	c.stats.VerifySec += ic.VerifySec
}

// ChargeWorker records that worker w processed the given data volume (used
// for the work-balance analysis, Fig 13).
func (c *Cluster) ChargeWorker(w int, bytes float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.WorkerBytes[w%len(c.stats.WorkerBytes)] += bytes
}

// Stats returns a snapshot of the accumulated costs.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.WorkerBytes = append([]float64(nil), c.stats.WorkerBytes...)
	return s
}

// Reset clears the accumulated costs.
func (c *Cluster) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{WorkerBytes: make([]float64, c.cfg.Workers())}
}

// PartitionOf returns the worker a block at grid position (br, bc) hashes
// to, reproducing the SystemDS hash partition scheme the paper inherits.
func (c *Cluster) PartitionOf(br, bc int) int {
	h := uint64(br)*0x9E3779B97F4A7C15 ^ uint64(bc)*0xC2B2AE3D27D4EB4F
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(c.cfg.Workers()))
}
