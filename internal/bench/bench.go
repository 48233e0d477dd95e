// Package bench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster. Each experiment returns a
// Table whose rows mirror the series the paper plots; cmd/remac-bench
// renders them as text, and the repository's EXPERIMENTS.md records
// paper-vs-measured for each.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/data"
	"remac/internal/distmat"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/opt"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

// Table is one experiment's output: labeled rows of named measurements.
// The JSON tags are the remac-bench -json contract.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	// Notes document deviations or caps (e.g. tree-wise deadline).
	Notes []string `json:"notes,omitempty"`
}

// Row is one labeled series point.
type Row struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values,omitempty"`
	// Text carries non-numeric cells (e.g. "timeout").
	Text map[string]string `json:"text,omitempty"`
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-34s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-34s", r.Label)
		for _, c := range t.Columns {
			if txt, ok := r.Text[c]; ok {
				fmt.Fprintf(&b, "%16s", txt)
			} else if v, ok := r.Values[c]; ok {
				fmt.Fprintf(&b, "%16s", formatCell(v))
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// formatCell renders a measurement compactly: small magnitudes keep
// significant digits (sparsities, milliseconds), large ones two decimals.
func formatCell(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	if av != 0 && av < 0.01 {
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// runCfg describes one measured run.
type runCfg struct {
	alg        algorithms.Name
	dataset    string
	strategy   opt.Strategy
	estimator  sparsity.Estimator
	combiner   opt.Combiner
	iterations int
	cluster    cluster.Config
	manualKeys []string
	// faults, when any rate is nonzero, injects deterministic failures
	// during the run.
	faults fault.Config
	// recovery selects the failure-recovery policy (lineage, checkpoint,
	// coded k-of-n); the zero value means lineage.
	recovery engine.RecoveryPolicy
	// verify and nanGuard select the run's integrity layer (see
	// engine.RunOptions).
	verify   integrity.VerifyMode
	nanGuard integrity.GuardMode
}

// runOut is the measurement of one run.
type runOut struct {
	ExecSec      float64 // simulated execution minus input partition
	PartitionSec float64
	CompileSec   float64
	ComputeSec   float64
	TransmitSec  float64
	WorkerShares []float64
	Selected     []string

	// Fault accounting (zero for perfect-cluster runs).
	Retries       int
	RecoverySec   float64
	RecomputeFLOP float64
	FailedWorkers int

	// Coded-recovery accounting (zero unless the run used a coded policy).
	CodedRecoveries int
	DecodeSec       float64
	EncodeFLOP      float64

	// Integrity accounting (zero unless corruption or verification was on).
	CorruptionsInjected int
	CorruptionsDigest   int
	CorruptionsABFT     int
	IntegrityRepairs    int
	RepairSec           float64
	VerifySec           float64
	// ResultHash fingerprints the final variable bindings; equal hashes mean
	// bitwise-identical results.
	ResultHash uint64
}

var (
	traceMu sync.Mutex
	traceW  io.Writer
)

// TraceTo directs every subsequent run's operator spans to w as JSON lines
// (remac-bench -trace). Pass nil to disable.
func TraceTo(w io.Writer) {
	traceMu.Lock()
	traceW = w
	traceMu.Unlock()
}

// traceSink returns the current trace writer, if any.
func traceSink() io.Writer {
	traceMu.Lock()
	defer traceMu.Unlock()
	return traceW
}

// inputsFor builds the engine inputs and compile metas of a workload over
// a dataset (an unknown dataset name panics: they are constants here).
func inputsFor(alg algorithms.Name, dataset string) (map[string]engine.Input, map[string]sparsity.Meta, error) {
	bound, err := data.MustLoad(dataset).Inputs(alg)
	if err != nil {
		return nil, nil, err
	}
	ins := make(map[string]engine.Input, len(bound))
	metas := make(map[string]sparsity.Meta, len(bound))
	for _, in := range bound {
		ins[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
		metas[in.Name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
	}
	return ins, metas, nil
}

// runOne executes one measured configuration. When a trace sink is set
// (remac-bench -trace), the run's spans are appended to it as JSON lines.
func runOne(cfg runCfg) (*runOut, error) {
	var rec *trace.Recorder
	sink := traceSink()
	if sink != nil {
		rec = trace.NewRun(fmt.Sprintf("%s/%s/%v", cfg.alg, cfg.dataset, cfg.strategy))
	}
	out, err := runOneTraced(cfg, rec)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		traceMu.Lock()
		err = rec.WriteJSONL(sink)
		traceMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOneTraced executes one measured configuration with an optional span
// recorder attached.
func runOneTraced(cfg runCfg, rec *trace.Recorder) (*runOut, error) {
	if cfg.iterations == 0 {
		cfg.iterations = algorithms.DefaultIterations(cfg.alg)
	}
	if cfg.cluster.Nodes == 0 {
		cfg.cluster = cluster.DefaultConfig()
	}
	if cfg.estimator == nil {
		cfg.estimator = sparsity.MNC{}
	}
	ins, metas, err := inputsFor(cfg.alg, cfg.dataset)
	if err != nil {
		return nil, err
	}
	prog := algorithms.MustProgram(cfg.alg, cfg.iterations)
	compiled, err := opt.Compile(prog, metas, opt.Config{
		Strategy:   cfg.strategy,
		Estimator:  cfg.estimator,
		Combiner:   cfg.combiner,
		Cluster:    cfg.cluster,
		Iterations: cfg.iterations,
		ManualKeys: cfg.manualKeys,
	})
	if err != nil {
		return nil, fmt.Errorf("%v/%s/%v: %w", cfg.alg, cfg.dataset, cfg.strategy, err)
	}
	fcfg := cfg.faults
	fcfg.Workers = cfg.cluster.Workers()
	res, err := engine.RunWithOptions(context.Background(), compiled, ins, rec, engine.RunOptions{
		Faults:   fault.NewPlan(fcfg),
		Recovery: cfg.recovery,
		Verify:   cfg.verify,
		NaNGuard: cfg.nanGuard,
	})
	if err != nil {
		return nil, fmt.Errorf("%v/%s/%v: %w", cfg.alg, cfg.dataset, cfg.strategy, err)
	}
	out := &runOut{
		ExecSec:      res.Stats.TotalTime() - res.InputPartitionSec,
		PartitionSec: res.InputPartitionSec,
		CompileSec:   res.CompileSec,
		ComputeSec:   res.Stats.ComputeTime,
		TransmitSec:  res.Stats.TransmitTime,

		Retries:       res.Stats.Retries,
		RecoverySec:   res.Stats.RecoverySec,
		RecomputeFLOP: res.Stats.RecomputeFLOP,
		FailedWorkers: res.Stats.FailedWorkers,

		CodedRecoveries: res.Stats.CodedRecoveries,
		DecodeSec:       res.Stats.DecodeSec,
		EncodeFLOP:      res.Stats.EncodeFLOP,

		CorruptionsInjected: res.Stats.CorruptionsInjected,
		CorruptionsDigest:   res.Stats.CorruptionsDigest,
		CorruptionsABFT:     res.Stats.CorruptionsABFT,
		IntegrityRepairs:    res.Stats.IntegrityRepairs,
		RepairSec:           res.Stats.RepairSec,
		VerifySec:           res.Stats.VerifySec,
		ResultHash:          envHash(res.Env),
	}
	total := 0.0
	for _, b := range res.Stats.WorkerBytes {
		total += b
	}
	if total > 0 {
		for _, b := range res.Stats.WorkerBytes {
			out.WorkerShares = append(out.WorkerShares, b/total)
		}
	}
	if compiled.Decision != nil {
		out.Selected = compiled.Decision.Keys()
	}
	sort.Strings(out.Selected)
	return out, nil
}

// envHash is the result identity (integrity.DigestValues) of a run's final
// variable bindings.
func envHash(env map[string]*distmat.DistMatrix) uint64 {
	values := make(map[string]*matrix.Matrix, len(env))
	for name, d := range env {
		values[name] = d.Data()
	}
	return integrity.DigestValues(values)
}

// experiments is the registry, in presentation order: the paper's tables
// and figures, then the extensions on the same simulated clock.
var experiments = []struct {
	id  string
	run func() (*Table, error)
}{
	{"table2", Table2},
	{"fig3a", func() (*Table, error) { return Fig3(false) }},
	{"fig3b", func() (*Table, error) { return Fig3(true) }},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig9", Fig9},
	{"fig10a", Fig10a},
	{"fig10b", Fig10b},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"options", OptionCensus},
	{"opstats", OpStats},
	{"faults", Faults},
	{"integrity", Integrity},
}

// IDs lists the experiment ids in presentation order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run regenerates one experiment by id.
func Run(id string) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run()
		}
	}
	return nil, fmt.Errorf("unknown experiment %q; available: %v", id, IDs())
}

// OpStats records per-operator aggregates for a traced DFP run: how many
// operators of each kind executed, and where the simulated time and bytes
// went. It exercises the same recorder remac-bench -trace serializes.
func OpStats() (*Table, error) {
	t := &Table{ID: "OpStats", Title: "Per-operator aggregates, DFP on cri2 (ReMac plan)",
		Columns: []string{"ops", "GFLOP", "compute(s)", "transmit(s)", "GB"}}
	rec := trace.NewRun("dfp/cri2/adaptive")
	if _, err := runOneTraced(runCfg{alg: algorithms.DFP, dataset: "cri2", strategy: opt.Adaptive}, rec); err != nil {
		return nil, err
	}
	sum := rec.Summary()
	for _, ks := range sum.ByKind {
		bytes := 0.0
		for _, b := range ks.Bytes {
			bytes += b
		}
		t.Rows = append(t.Rows, Row{Label: ks.Kind, Values: map[string]float64{
			"ops":         float64(ks.Ops),
			"GFLOP":       ks.FLOP / 1e9,
			"compute(s)":  ks.ComputeSec,
			"transmit(s)": ks.TransmitSec,
			"GB":          bytes / 1e9,
		}})
	}
	t.Rows = append(t.Rows, Row{Label: "total", Values: map[string]float64{
		"ops":         float64(sum.Ops),
		"GFLOP":       sum.FLOP / 1e9,
		"compute(s)":  sum.ComputeSec,
		"transmit(s)": sum.TransmitSec,
	}})
	return t, nil
}

// Table2 reports the dataset statistics.
func Table2() (*Table, error) {
	t := &Table{ID: "Table 2", Title: "Dataset statistics (virtual scale)",
		Columns: []string{"rows(M)", "cols", "sparsity", "GB"}}
	for _, r := range data.Table2() {
		t.Rows = append(t.Rows, Row{Label: r.Dataset, Values: map[string]float64{
			"rows(M)":  float64(r.Rows) / 1e6,
			"cols":     float64(r.Cols),
			"sparsity": r.Sparsity,
			"GB":       r.FootprintGB,
		}})
	}
	return t, nil
}
