package remac

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"remac/internal/cluster"
	"remac/internal/costgraph"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/lang"
	"remac/internal/opt"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

// Strategy selects how elimination options are applied.
type Strategy string

// The six planner configurations of the paper's evaluation.
const (
	// NoElimination disables CSE/LSE entirely (the paper's SystemDS*).
	NoElimination Strategy = "none"
	// Explicit applies identical-subtree CSE only (stock SystemDS).
	Explicit Strategy = "explicit"
	// Conservative applies options that follow the original execution order.
	Conservative Strategy = "conservative"
	// Aggressive applies every applicable option, order-changing first.
	Aggressive Strategy = "aggressive"
	// Automatic applies as many block-wise options as possible.
	Automatic Strategy = "automatic"
	// Adaptive is ReMac's cost-based combination (the default).
	Adaptive Strategy = "adaptive"
)

// Estimator selects the sparsity estimator of the cost model (§4.2).
type Estimator string

// Available estimators.
const (
	// MD is the metadata-based estimator (fast, assumes uniform nonzeros).
	MD Estimator = "MD"
	// MNC is the structure-exploiting count-sketch estimator (ReMac's
	// reported configuration).
	MNC Estimator = "MNC"
)

// Combiner selects how adaptive elimination combines options (Fig 10).
type Combiner string

// Available combiners.
const (
	// DP is the dynamic-programming probing of §4.3 (the default).
	DP Combiner = "DP"
	// EnumDFS is brute-force depth-first enumeration.
	EnumDFS Combiner = "Enum-DFS"
	// EnumBFS is brute-force breadth-first enumeration.
	EnumBFS Combiner = "Enum-BFS"
)

// ClusterConfig describes the simulated cluster. The zero value means
// DefaultCluster().
type ClusterConfig struct {
	// Nodes in the cluster (one hosts the driver). Default 7, the paper's
	// testbed.
	Nodes int
	// CoresPerNode per worker. Default 12.
	CoresPerNode int
	// NetBandwidthMBps is the per-link bandwidth in MB/s. Default 125
	// (1 Gbps).
	NetBandwidthMBps float64
	// DriverMemoryGB bounds local-mode values. Default 20.
	DriverMemoryGB float64
	// BlockSize is the square matrix block edge. Default 1000.
	BlockSize int
}

// DefaultCluster returns the paper's seven-node testbed.
func DefaultCluster() ClusterConfig { return publicCluster(cluster.DefaultConfig()) }

// SingleNodeCluster returns the single-node comparison setup of Fig 3(b): one
// node whose memory holds the run but not the dataset plus its intermediates.
func SingleNodeCluster() ClusterConfig { return publicCluster(cluster.SingleNodeConfig()) }

func publicCluster(c cluster.Config) ClusterConfig {
	return ClusterConfig{
		Nodes:            c.Nodes,
		CoresPerNode:     c.CoresPerNode,
		NetBandwidthMBps: c.NetBandwidth / 1e6,
		DriverMemoryGB:   float64(c.DriverMemory) / (1 << 30),
		BlockSize:        c.BlockSize,
	}
}

func (c ClusterConfig) internal() cluster.Config {
	// Zero fields default; nonzero fields — including invalid negative ones —
	// pass through so Validate can reject them instead of silently reverting
	// to defaults.
	base := cluster.DefaultConfig()
	if c.Nodes != 0 {
		base.Nodes = c.Nodes
	}
	if c.CoresPerNode != 0 {
		base.CoresPerNode = c.CoresPerNode
	}
	if c.NetBandwidthMBps != 0 {
		base.NetBandwidth = c.NetBandwidthMBps * 1e6
	}
	if c.DriverMemoryGB != 0 {
		base.DriverMemory = int64(c.DriverMemoryGB * float64(1<<30))
	}
	if c.BlockSize != 0 {
		base.BlockSize = c.BlockSize
	}
	return base
}

// Validate reports whether the configuration describes a runnable cluster
// (positive node/core counts, bandwidth, memory and block size).
func (c ClusterConfig) Validate() error {
	_, err := cluster.NewChecked(c.internal())
	return err
}

// Config parameterizes compilation.
type Config struct {
	// Strategy defaults to Adaptive.
	Strategy Strategy
	// Estimator defaults to MNC (ReMac's reported choice, §6.3.2).
	Estimator Estimator
	// Combiner defaults to DP.
	Combiner Combiner
	// Cluster defaults to the paper's 7-node testbed.
	Cluster ClusterConfig
	// Iterations is the expected loop trip count for LSE amortization; it
	// defaults to 15 (quasi-Newton scale). Set it to the script's actual
	// trip count.
	Iterations int
	// EnumMaxCombos bounds the Enum combiners (0 = 100k).
	EnumMaxCombos int
}

// Input pairs a materialized matrix with the virtual (full-scale)
// dimensions used for cost accounting. Zero virtual dims use the actual
// ones.
type Input struct {
	Data        *Matrix
	VirtualRows int64
	VirtualCols int64
}

// Program is a compiled script, ready to run or inspect.
type Program struct {
	compiled *opt.Compiled
	inputs   map[string]Input
}

// Compile parses, optimizes and plans a script against the given inputs.
func Compile(script string, inputs map[string]Input, cfg Config) (*Program, error) {
	prog, err := lang.Parse(script)
	if err != nil {
		return nil, err
	}
	metas := map[string]sparsity.Meta{}
	for name, in := range inputs {
		if in.Data == nil {
			return nil, fmt.Errorf("remac: input %q has nil data", name)
		}
		metas[name] = sparsity.Virtualize(sparsity.MetaOf(in.Data.m), in.VirtualRows, in.VirtualCols)
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	strategy, err := strategyInternal(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	estimator, err := estimatorInternal(cfg.Estimator)
	if err != nil {
		return nil, err
	}
	combiner, err := combinerInternal(cfg.Combiner)
	if err != nil {
		return nil, err
	}
	icfg := opt.Config{
		Strategy:   strategy,
		Estimator:  estimator,
		Combiner:   combiner,
		Cluster:    cfg.Cluster.internal(),
		Iterations: cfg.Iterations,
	}
	if icfg.Iterations == 0 {
		icfg.Iterations = 15
	}
	max := cfg.EnumMaxCombos
	if max == 0 {
		max = 100_000
	}
	icfg.EnumBudget = costgraph.EnumBudget{MaxCombos: max}
	compiled, err := opt.Compile(prog, metas, icfg)
	if err != nil {
		return nil, err
	}
	return &Program{compiled: compiled, inputs: inputs}, nil
}

// strategyInternal, estimatorInternal and combinerInternal map the public
// names to the planner's; the empty string is the default, and anything else
// that is not a known name is an error naming the accepted ones.
func strategyInternal(s Strategy) (opt.Strategy, error) {
	strategy, err := opt.ParseStrategy(string(s))
	if err != nil {
		return 0, fmt.Errorf("remac: %w", err)
	}
	return strategy, nil
}

func estimatorInternal(e Estimator) (sparsity.Estimator, error) {
	switch e {
	case MD:
		return sparsity.Metadata{}, nil
	case "", MNC:
		return sparsity.MNC{}, nil
	}
	return nil, fmt.Errorf("remac: unknown estimator %q (want %s or %s)", e, MD, MNC)
}

func combinerInternal(c Combiner) (opt.Combiner, error) {
	switch c {
	case EnumDFS:
		return opt.EnumDFS, nil
	case EnumBFS:
		return opt.EnumBFS, nil
	case "", DP:
		return opt.DP, nil
	}
	return 0, fmt.Errorf("remac: unknown combiner %q (want %s, %s or %s)", c, DP, EnumDFS, EnumBFS)
}

// OptionInfo describes one discovered elimination option.
type OptionInfo struct {
	// Kind is "CSE", "LSE" or "CSE-group".
	Kind string
	// Key is the canonical subexpression (e.g. "A'·A").
	Key string
	// Occurrences counts where the subexpression appears.
	Occurrences int
	// Selected reports whether the planner applied it.
	Selected bool
}

// Options lists the CSE/LSE options automatic elimination found (empty for
// the NoElimination/Explicit strategies, which do not search).
func (p *Program) Options() []OptionInfo {
	if p.compiled.Search == nil {
		return nil
	}
	selected := p.SelectedKeys()
	out := make([]OptionInfo, 0, len(p.compiled.Search.Options))
	for _, o := range p.compiled.Search.Options {
		out = append(out, OptionInfo{
			Kind:        o.Kind.String(),
			Key:         o.Key,
			Occurrences: len(o.Occs),
			Selected:    slices.Contains(selected, o.Key),
		})
	}
	return out
}

// SelectedKeys returns the applied option keys, sorted.
func (p *Program) SelectedKeys() []string { return p.compiled.Decision.Keys() }

// Explain renders the coordinate system, the discovered options and the
// selection — the remac-explain tool's output.
func (p *Program) Explain() string {
	var b strings.Builder
	c := p.compiled
	fmt.Fprintf(&b, "strategy: %v, estimator: %s, iterations: %d\n",
		c.Config.Strategy, c.Config.Estimator.Name(), c.Config.Iterations)
	if c.Coords != nil {
		b.WriteString("\ncoordinates:\n")
		b.WriteString(c.Coords.String())
	}
	if c.Search != nil {
		fmt.Fprintf(&b, "\noptions found: %d (search %v)\n", len(c.Search.Options), c.SearchTime)
		selected := p.SelectedKeys()
		for _, o := range c.Search.Options {
			mark := " "
			if slices.Contains(selected, o.Key) {
				mark = "*"
			}
			fmt.Fprintf(&b, " %s %s\n", mark, o.String())
		}
	}
	if c.Decision != nil {
		fmt.Fprintf(&b, "\nselected %d options, modelled cost %.3f s/iteration (plan %v)\n",
			len(c.Decision.Selected), c.Decision.TotalCost, c.PlanTime)
	}
	return b.String()
}

// FaultConfig schedules deterministic fault injection against the simulated
// clock: the same seed and rates always reproduce the same fault sequence.
// Fail-stop faults (failures, transmit errors, stragglers) only ever affect
// cost accounting — result matrices stay numerically identical to a
// fault-free run. Corruption is the deliberate exception: an undetected
// corruption flips a real payload bit and propagates, which is exactly what
// RunOptions.Verify exists to catch. All rates are events per simulated hour
// of cluster work; zero rates everywhere disable injection.
type FaultConfig struct {
	// Seed selects the fault schedule (per-kind streams are independent).
	Seed int64
	// WorkerFailuresPerHour loses one worker's partitions per event; lost
	// blocks are lazily recomputed from lineage (or re-read, if
	// checkpointed) when next used.
	WorkerFailuresPerHour float64
	// TransmitErrorsPerHour fails one in-flight task of the running
	// operator, retried after a capped exponential backoff from 1s with
	// retransmission of that task's share.
	TransmitErrorsPerHour float64
	// StragglersPerHour stretches the running operator to twice its time.
	StragglersPerHour float64
	// CorruptionsPerHour flips one bit in a payload in flight or in a
	// distributed multiply's compute phase. Detection (and hence repair)
	// depends on RunOptions.Verify; an undetected flip propagates into the
	// result.
	CorruptionsPerHour float64
}

// RunOptions configures the run-time behavior of an execution. The zero
// value reproduces Run: a perfect cluster with no checkpointing.
type RunOptions struct {
	// Faults enables deterministic fault injection when non-nil.
	Faults *FaultConfig
	// Recovery selects the recovery policy for blocks lost to injected
	// worker failures: "" or "lineage" (recompute from lineage),
	// "checkpoint" (persist loop-hoisted intermediates to DFS once),
	// "coded" or "coded:k,n" (systematic k-of-n erasure coding: parity
	// blocks are encoded at honest cost and erased blocks decode with no
	// recomputation).
	Recovery string
	// MaxIterations overrides the engine's runaway-loop cap when positive.
	MaxIterations int
	// Verify selects integrity verification: "off" (or ""), "digest" (block
	// checksums on every charged transmission and DFS read) or "abft"
	// (digest plus checksum-vector verification of distributed multiplies).
	// Detected corruptions repair through lineage at simulated cost;
	// unrepairable ones fail the run with integrity.Error.
	Verify string
	// NaNGuard selects non-finite scanning: "off" (or ""), "iter" (scan
	// loop variables each iteration) or "op" (scan every operator output).
	// A caught NaN/Inf fails the run with integrity.NumericError.
	NaNGuard string
	// Trace collects a structured trace into Report.Trace: one span per
	// charged operator, grouped under statement and iteration boundary spans;
	// retries and recoveries appear as fault spans.
	Trace bool
}

func (f *FaultConfig) internal(workers int) *fault.Plan {
	if f == nil {
		return nil
	}
	return fault.NewPlan(fault.Config{
		Seed:                  f.Seed,
		WorkerFailuresPerHour: f.WorkerFailuresPerHour,
		TransmitErrorsPerHour: f.TransmitErrorsPerHour,
		StragglersPerHour:     f.StragglersPerHour,
		CorruptionsPerHour:    f.CorruptionsPerHour,
		Workers:               workers,
	})
}

// Report is the outcome of a run.
type Report struct {
	// Values holds the final variable bindings.
	Values map[string]*Matrix
	// Iterations executed.
	Iterations int
	// SimulatedSeconds is the modelled wall-clock execution time on the
	// simulated cluster.
	SimulatedSeconds float64
	// ComputeSeconds and TransmitSeconds split SimulatedSeconds.
	ComputeSeconds, TransmitSeconds float64
	// InputPartitionSeconds is the input read/partition phase.
	InputPartitionSeconds float64
	// CompileSeconds is the real compilation time.
	CompileSeconds float64
	// BytesByPrimitive reports data volumes per transmission primitive
	// (collect, broadcast, shuffle, dfs).
	BytesByPrimitive map[string]float64
	// WorkerShares is each worker's fraction of the partitioned input data
	// (the Fig 13 measurement).
	WorkerShares []float64

	// Trace is the span record of the run when RunOptions.Trace asked for
	// one, nil otherwise.
	Trace *RunTrace

	// Fault-injection accounting (all zero unless RunOptions attached a
	// FaultConfig).
	//
	// Retries counts transmission-error retry attempts.
	Retries int
	// RecoverySeconds is the simulated time spent on backoff,
	// retransmission, straggling and recomputation; it is included in
	// SimulatedSeconds.
	RecoverySeconds float64
	// RecomputeFLOP is the work re-executed to rebuild lost blocks.
	RecomputeFLOP float64
	// FailedWorkers counts injected worker-failure events.
	FailedWorkers int
	// CodedRecoveries counts k-of-n decode recoveries (coded policy only):
	// lost blocks rebuilt from parity with no recomputation.
	CodedRecoveries int
	// DecodeSeconds is the simulated time those decodes cost (included in
	// RecoverySeconds).
	DecodeSeconds float64
	// EncodeFLOP is the parity-encoding work the coded policy charged
	// (included in the run's total FLOP).
	EncodeFLOP float64

	// Integrity accounting (all zero unless corruption was injected or a
	// verification mode was on).
	//
	// CorruptionsInjected counts corruption events that landed in a payload.
	CorruptionsInjected int
	// CorruptionsDetected splits detections by layer: block digests on
	// transmissions vs the ABFT multiply check.
	CorruptionsDetectedDigest, CorruptionsDetectedABFT int
	// IntegrityRepairs counts lineage repair attempts; RepairSeconds is their
	// simulated cost (included in RecoverySeconds).
	IntegrityRepairs int
	RepairSeconds    float64
	// VerifySeconds is the simulated cost of the enabled verification mode
	// (included in ComputeSeconds).
	VerifySeconds float64
}

// Run executes the compiled program on a fresh simulated cluster.
func (p *Program) Run() (*Report, error) {
	return p.RunContext(context.Background(), RunOptions{})
}

// RunContext executes the program like Run, with the run-time behavior opts
// selects, under a cancellation context: when ctx is cancelled or its
// deadline passes, the run stops promptly (within one kernel execution) and
// the returned error satisfies errors.Is(err, ErrCanceled).
func (p *Program) RunContext(ctx context.Context, opts RunOptions) (*Report, error) {
	ins := map[string]engine.Input{}
	for name, in := range p.inputs {
		ins[name] = engine.Input{Data: in.Data.m, VRows: in.VirtualRows, VCols: in.VirtualCols}
	}
	verify, err := integrity.ParseVerifyMode(opts.Verify)
	if err != nil {
		return nil, err
	}
	guard, err := integrity.ParseGuardMode(opts.NaNGuard)
	if err != nil {
		return nil, err
	}
	recovery, err := engine.ParseRecovery(opts.Recovery)
	if err != nil {
		return nil, err
	}
	var rec *trace.Recorder
	if opts.Trace {
		rec = trace.New()
	}
	res, err := engine.RunWithOptions(ctx, p.compiled, ins, rec, engine.RunOptions{
		Faults:   opts.Faults.internal(p.compiled.Config.Cluster.Workers()),
		Recovery: recovery,
		MaxIter:  opts.MaxIterations,
		Verify:   verify,
		NaNGuard: guard,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Values:                map[string]*Matrix{},
		Iterations:            res.Iterations,
		SimulatedSeconds:      res.Stats.TotalTime(),
		ComputeSeconds:        res.Stats.ComputeTime,
		TransmitSeconds:       res.Stats.TransmitTime,
		InputPartitionSeconds: res.InputPartitionSec,
		CompileSeconds:        res.CompileSec,
		BytesByPrimitive:      map[string]float64{},
		Retries:               res.Stats.Retries,
		RecoverySeconds:       res.Stats.RecoverySec,
		RecomputeFLOP:         res.Stats.RecomputeFLOP,
		FailedWorkers:         res.Stats.FailedWorkers,
		CodedRecoveries:       res.Stats.CodedRecoveries,
		DecodeSeconds:         res.Stats.DecodeSec,
		EncodeFLOP:            res.Stats.EncodeFLOP,

		CorruptionsInjected:       res.Stats.CorruptionsInjected,
		CorruptionsDetectedDigest: res.Stats.CorruptionsDigest,
		CorruptionsDetectedABFT:   res.Stats.CorruptionsABFT,
		IntegrityRepairs:          res.Stats.IntegrityRepairs,
		RepairSeconds:             res.Stats.RepairSec,
		VerifySeconds:             res.Stats.VerifySec,
	}
	for name, v := range res.Env {
		rep.Values[name] = wrap(v.Data())
	}
	for _, prim := range cluster.Primitives {
		rep.BytesByPrimitive[prim.String()] = res.Stats.BytesFor(prim)
	}
	total := 0.0
	for _, b := range res.Stats.WorkerBytes {
		total += b
	}
	if total > 0 {
		for _, b := range res.Stats.WorkerBytes {
			rep.WorkerShares = append(rep.WorkerShares, b/total)
		}
	}
	if rec != nil {
		rep.Trace = &RunTrace{rec: rec}
	}
	return rep, nil
}

// ErrCanceled is returned (wrapped) by RunContext when the context ends
// before the run completes.
var ErrCanceled = engine.ErrCanceled

// ErrCorruption matches (via errors.Is) a run that failed because a detected
// corruption could not be repaired within the bounded lineage budget.
var ErrCorruption = integrity.ErrCorruption

// ErrNonFinite matches (via errors.Is) a run stopped by the NaNGuard scan.
var ErrNonFinite = integrity.ErrNonFinite

// TotalSeconds returns simulated execution plus compilation time.
func (r *Report) TotalSeconds() float64 { return r.SimulatedSeconds + r.CompileSeconds }

// RunTrace is the span record of one traced run (see RunOptions.Trace).
type RunTrace struct {
	rec *trace.Recorder
}

// WriteJSONL writes one JSON span per line — the remac-bench/remac -trace
// file format.
func (t *RunTrace) WriteJSONL(w io.Writer) error { return t.rec.WriteJSONL(w) }

// StatementCost aggregates the simulated cost of one statement across all
// of its executions.
type StatementCost struct {
	// Statement is the assigned variable ("(outside statements)" collects
	// charges outside any statement, e.g. inputs read by loop conditions).
	Statement string
	// Executions counts how many times the statement ran.
	Executions int
	// Ops counts the charged operators it executed.
	Ops int
	// ComputeSeconds and TransmitSeconds are simulated totals.
	ComputeSeconds, TransmitSeconds float64
}

// StatementCosts returns the per-statement simulated-cost table in program
// order (the remac-explain view).
func (t *RunTrace) StatementCosts() []StatementCost {
	var out []StatementCost
	for _, g := range t.rec.GroupCosts("stmt") {
		label := g.Label
		if label == "" {
			label = "(outside statements)"
		}
		out = append(out, StatementCost{
			Statement:       label,
			Executions:      g.Executions,
			Ops:             g.Ops,
			ComputeSeconds:  g.ComputeSec,
			TransmitSeconds: g.TransmitSec,
		})
	}
	return out
}

// OperatorStat aggregates the spans of one operator kind.
type OperatorStat struct {
	// Kind is the operator family: mul, ewise, transpose, scale,
	// add-scalar, sum, dfs-read.
	Kind string
	// Ops counts executions.
	Ops int
	// FLOP, ComputeSeconds and TransmitSeconds are simulated totals.
	FLOP, ComputeSeconds, TransmitSeconds float64
	// Bytes maps transmission primitive name to total simulated volume.
	Bytes map[string]float64
}

// OperatorStats returns per-operator aggregates sorted by descending
// simulated seconds.
func (t *RunTrace) OperatorStats() []OperatorStat {
	var out []OperatorStat
	for _, k := range t.rec.Summary().ByKind {
		out = append(out, OperatorStat{
			Kind:            k.Kind,
			Ops:             k.Ops,
			FLOP:            k.FLOP,
			ComputeSeconds:  k.ComputeSec,
			TransmitSeconds: k.TransmitSec,
			Bytes:           k.Bytes,
		})
	}
	return out
}
