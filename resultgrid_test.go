package remac_test

// TestResultGrid pins what every run of a fixed grid produces — result
// cells, simulated seconds, cluster accounting, the span sequence and the
// planner's decision — to the bit, in a committed golden file. The in-suite
// comparisons hold configurations against each other within one commit; this
// holds a commit against its parent, so a change that moves the same bit in
// every configuration (a reordered accumulation, a changed cost fold) fails
// here and nowhere else.
//
//	go test -run TestResultGrid .                      # tier-1 slice
//	go test -run TestResultGrid -full-grid .           # every strategy
//	go test -run TestResultGrid -full-grid -update .   # rewrite the lines run

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/costgraph"
	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/integrity"
	"remac/internal/opt"
	"remac/internal/sparsity"
	"remac/internal/trace"
)

var (
	updateGrid = flag.Bool("update", false, "rewrite the result grid's golden lines for the runs made")
	fullGrid   = flag.Bool("full-grid", false, "run every strategy over the result grid, not only the tier-1 slice")
)

const gridGolden = "testdata/result_grid.golden"

var (
	gridDatasets   = []string{"cri1", "cri2", "cri3", "red1", "red2", "red3", "zipf-1.4", "zipf-2.8"}
	gridSlice      = []opt.Strategy{opt.NoElimination, opt.Adaptive}
	gridStrategies = []opt.Strategy{opt.NoElimination, opt.Explicit, opt.Conservative, opt.Aggressive,
		opt.Automatic, opt.Adaptive, opt.SPORESLike}
)

// gridIterations keeps every run short; the decision still amortizes LSE
// producers over the same count the loop runs.
const gridIterations = 3

// gridRun is one line of the grid.
type gridRun struct {
	alg      algorithms.Name
	dataset  string
	strategy opt.Strategy
	arm      string // "" for a perfect cluster, else one of gridArms
}

// gridArms are the DFP/cri2 Adaptive runs under a seeded fault plan: fail-stop
// faults under each recovery policy, and bit flips under each verification
// mode (which puts the digest pass, integrity.Summarise, on the grid).
var gridArms = []string{"faults-lineage", "faults-checkpoint", "faults-coded", "verify-digest", "verify-abft"}

// gridSliceArms are the arms tier-1 runs beside the slice.
var gridSliceArms = []string{"faults-lineage", "verify-digest"}

// gridSliceReuse are the strategies tier-1 runs on cri1 beside the slice: the
// identical-subtree reuse slots of Explicit and Conservative.
var gridSliceReuse = []opt.Strategy{opt.Explicit, opt.Conservative}

func (r gridRun) key() string {
	k := fmt.Sprintf("%s/%s/%v", r.alg, r.dataset, r.strategy)
	if r.arm != "" {
		k += "/" + r.arm
	}
	return k
}

// gridRuns lists the runs in golden-file order: every algorithm × dataset ×
// strategy, then the arms. The slice adds the cri1 runs of reuse.
func gridRuns(strategies []opt.Strategy, arms []string, reuse []opt.Strategy) []gridRun {
	var runs []gridRun
	for _, alg := range algorithms.All {
		for _, ds := range gridDatasets {
			for _, s := range strategies {
				runs = append(runs, gridRun{alg: alg, dataset: ds, strategy: s})
			}
			for _, s := range reuse {
				if ds == "cri1" {
					runs = append(runs, gridRun{alg: alg, dataset: ds, strategy: s})
				}
			}
		}
	}
	for _, arm := range arms {
		runs = append(runs, gridRun{alg: algorithms.DFP, dataset: "cri2", strategy: opt.Adaptive, arm: arm})
	}
	return runs
}

func TestResultGrid(t *testing.T) {
	strategies, arms, reuse := gridSlice, gridSliceArms, gridSliceReuse
	if *fullGrid {
		strategies, arms, reuse = gridStrategies, gridArms, nil
	}
	golden := readGrid(t)
	got := map[string]string{}
	for _, r := range gridRuns(strategies, arms, reuse) {
		line := runGridLine(t, r)
		got[r.key()] = line
		if *updateGrid {
			continue
		}
		want, ok := golden[r.key()]
		switch {
		case !ok:
			t.Errorf("%s: no golden line (run with -update)", r.key())
		case want != line:
			t.Errorf("%s: differs from the golden line\n got: %s\nwant: %s", r.key(), line, want)
		}
	}
	if *updateGrid {
		writeGrid(t, golden, got)
	}
}

// readGrid loads the golden lines by key.
func readGrid(t *testing.T) map[string]string {
	t.Helper()
	lines := map[string]string{}
	f, err := os.Open(gridGolden)
	if os.IsNotExist(err) && *updateGrid {
		return lines
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, rest, _ := strings.Cut(sc.Text(), " ")
		lines[key] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// writeGrid merges the lines just run into the golden ones and writes the
// file in the full grid's order.
func writeGrid(t *testing.T, golden, got map[string]string) {
	t.Helper()
	for k, v := range got {
		golden[k] = v
	}
	var b strings.Builder
	for _, r := range gridRuns(gridStrategies, gridArms, nil) {
		if line, ok := golden[r.key()]; ok {
			fmt.Fprintf(&b, "%s %s\n", r.key(), line)
		}
	}
	if err := os.MkdirAll(filepath.Dir(gridGolden), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gridGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runGridLine compiles and runs one grid cell and renders everything it
// produced, floats by their bits.
func runGridLine(t *testing.T, r gridRun) string {
	t.Helper()
	bound, err := data.MustLoad(r.dataset).Inputs(r.alg)
	if err != nil {
		t.Fatal(err)
	}
	ins := make(map[string]engine.Input, len(bound))
	metas := make(map[string]sparsity.Meta, len(bound))
	for _, in := range bound {
		ins[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
		metas[in.Name] = sparsity.Virtualize(sparsity.MetaOf(in.Data), in.VRows, in.VCols)
	}
	cl := cluster.DefaultConfig()
	var opts engine.RunOptions
	if r.arm != "" {
		// LSE values worker-resident, so lost blocks have lineage to replay.
		cl.DriverMemory = 512 << 20
	}
	failStop := fault.Config{Seed: 17, WorkerFailuresPerHour: 480,
		TransmitErrorsPerHour: 960, StragglersPerHour: 480, Workers: cl.Workers()}
	bitFlips := fault.Config{Seed: 23, CorruptionsPerHour: 480, Workers: cl.Workers()}
	switch r.arm {
	case "faults-lineage":
		opts.Faults = fault.NewPlan(failStop)
	case "faults-checkpoint":
		opts.Faults, opts.Recovery = fault.NewPlan(failStop), engine.RecoveryPolicy{Kind: engine.RecoverCheckpoint}
	case "faults-coded":
		opts.Faults, opts.Recovery = fault.NewPlan(failStop), engine.RecoveryPolicy{Kind: engine.RecoverCoded}
	case "verify-digest":
		opts.Faults, opts.Verify = fault.NewPlan(bitFlips), integrity.VerifyDigest
	case "verify-abft":
		opts.Faults, opts.Verify = fault.NewPlan(bitFlips), integrity.VerifyABFT
	}
	compiled, err := opt.Compile(algorithms.MustProgram(r.alg, gridIterations), metas, opt.Config{
		Strategy:   r.strategy,
		Estimator:  sparsity.MNC{},
		Cluster:    cl,
		Iterations: gridIterations,
	})
	if err != nil {
		return "compile-err=" + fmt.Sprintf("%q", err.Error())
	}
	rec := trace.New()
	res, err := engine.RunWithOptions(context.Background(), compiled, ins, rec, opts)
	decision := describeDecision(compiled.Decision)
	if err != nil {
		return fmt.Sprintf("err=%q %s", err.Error(), decision)
	}
	s := res.Stats
	return fmt.Sprintf("iter=%d total=%x compute=%x transmit=%x flop=%x values=%016x spans=%d:%016x stats={%s} err=\"\" %s",
		res.Iterations, math.Float64bits(s.TotalTime()), math.Float64bits(s.ComputeTime),
		math.Float64bits(s.TransmitTime), math.Float64bits(s.FLOP), valuesHash(res),
		len(rec.Spans()), spansHash(t, rec), statsBits(reflect.ValueOf(s)), decision)
}

// foldedBits is a float's bits with every NaN payload folded to one.
func foldedBits(v float64) uint64 {
	if v != v {
		return 0x7ff8000000000001
	}
	return math.Float64bits(v)
}

func writeUint(h hash.Hash64, x uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
	h.Write(b[:])
}

// valuesHash hashes every bound value: name, storage format, stored NNZ,
// real and virtual dims, and each stored cell's position and bits.
func valuesHash(res *engine.Result) uint64 {
	names := make([]string, 0, len(res.Env))
	for name := range res.Env {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		v := res.Env[name]
		m := v.Data()
		vr, vc := v.VirtualDims()
		fmt.Fprintf(h, "%s|%v|%d|%dx%d|%dx%d|", name, m.Format(), m.NNZ(), m.Rows(), m.Cols(), vr, vc)
		for i := 0; i < m.Rows(); i++ {
			cols, vals := m.StoredRow(i)
			for p, x := range vals {
				if cols != nil {
					writeUint(h, uint64(cols[p]))
				}
				writeUint(h, foldedBits(x))
			}
			writeUint(h, uint64(len(vals)))
		}
	}
	return h.Sum64()
}

// spansHash hashes the span sequence with the one real-time field zeroed.
func spansHash(t *testing.T, rec *trace.Recorder) uint64 {
	h := fnv.New64a()
	for _, s := range rec.Spans() {
		s.WallNS = 0
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// statsBits renders every field of cluster.Stats, floats by their bits.
func statsBits(v reflect.Value) string {
	var parts []string
	for i := 0; i < v.NumField(); i++ {
		parts = append(parts, v.Type().Field(i).Name+"="+valueBits(v.Field(i)))
	}
	return strings.Join(parts, " ")
}

func valueBits(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64:
		return fmt.Sprintf("%x", math.Float64bits(v.Float()))
	case reflect.Int:
		return fmt.Sprint(v.Int())
	case reflect.Array, reflect.Slice:
		parts := make([]string, v.Len())
		for i := range parts {
			parts[i] = valueBits(v.Index(i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	panic(fmt.Sprintf("result grid: cluster.Stats field of kind %v", v.Kind()))
}

// describeDecision renders the planner's choice: the selected keys, the
// modelled cost's bits and the split signature of every block and producer
// plan.
func describeDecision(d *costgraph.Decision) string {
	if d == nil {
		return "decision=-"
	}
	var blocks, producers []string
	for _, bp := range d.BlockPlans {
		blocks = append(blocks, splitSig(bp.Root))
	}
	for _, pp := range d.Producers {
		producers = append(producers, pp.Option.Key+"="+splitSig(pp.Root))
	}
	return fmt.Sprintf("decision=%q cost=%x blocks=%s producers=%q", strings.Join(d.Keys(), ";"),
		math.Float64bits(d.TotalCost), strings.Join(blocks, ";"), strings.Join(producers, ";"))
}

// splitSig is a plan tree's shape: leaves by atom, reuses by option (a
// trailing ' for a flipped one), interior nodes as (left.right).
func splitSig(n *costgraph.OpNode) string {
	switch {
	case n == nil:
		return "-"
	case n.ReuseOf != nil:
		flip := ""
		if n.Flipped {
			flip = "'"
		}
		return fmt.Sprintf("r%d%s", n.ReuseOf.ID, flip)
	case n.L == nil:
		return fmt.Sprint(n.Lo)
	}
	return "(" + splitSig(n.L) + "." + splitSig(n.R) + ")"
}
