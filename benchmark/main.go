// Command benchmark measures the whole query path of the program from
// outside: six workloads, each reporting the same end-to-end metrics
// (untraced) or the per-layer metrics (traced pass), with every result
// verified against plain-slice reference implementations.
//
// The driver's contract is one workload per invocation:
//
//	bash benchmark/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
//
// which prints, as the last line of standard output, one JSON object with
// the keys correct, attempted, failed and metrics. Without --workload every
// workload runs, untraced and traced, and every metric is printed by name;
// --out FILE saves that as JSON and --compare OLD NEW compares two such
// files under the bounds of BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, which keeps one slow start from deciding it.
const setupReps = 3

type runConfig struct {
	seed     int64
	seconds  float64
	trace    bool
	sz       sizing
	traceOut string
}

// runResult is the outcome of one workload run.
type runResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Errors lists what failed verification (first few).
	Errors []string `json:"errors,omitempty"`
	// SelfTimes is the traced pass's self time by layer, descending.
	SelfTimes []layerTime `json:"-"`
	ops       int
	// machine describes what the measured window cost the machine, for
	// reading a noisy run.
	machine string
}

func machineNote(w *window) string {
	return fmt.Sprintf("window %.2f s at %.3f of the reference speed: cpu %.2f s of which system %.2f s, %d minor faults, %d involuntary switches, %d GC cycles, peak RSS %.0f MB",
		w.wall.Seconds(), w.speed, w.cpu.Seconds(), w.sys.Seconds(), w.faults, w.preempted, w.gcCycles, float64(processUsage().Maxrss)/1024)
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// measure runs one window of the instance's traffic.
func measure(in *instance, cfg runConfig, d time.Duration, tr *tracer) *window {
	ctx := context.Background()
	if in.clients > 0 {
		return closedLoop(ctx, in.clients, in.blockOps, in.schedule, in.run, tr, d)
	}
	return openLoop(ctx, arrivals(cfg.seed, in.qps, d), in.blockOps, in.schedule, in.run, tr)
}

// verify checks every op of a window outside the timed region: it must have
// succeeded and be bitwise identical to the first execution of its key. Ops
// that fail are marked so that no timing counts them.
func verify(in *instance, w *window, r *runResult) {
	r.Attempted += len(w.samples)
	for i := range w.samples {
		s := &w.samples[i]
		if s.err == nil && in.keyKind[s.key] != in.writeKind {
			if first := in.first[s.key]; first == nil {
				in.first[s.key] = &s.out
			} else {
				s.err = sameOutcome(first, &s.out)
			}
		}
		if s.err != nil {
			r.Failed++
			r.fail("op %d (%s): %v", s.op, in.kinds[in.keyKind[s.key]], s.err)
		}
	}
	if in.settle != nil {
		if err := in.settle(w); err != nil {
			r.Failed++
			r.fail("%v", err)
		}
	}
}

// runWorkload sets the workload up, measures it for cfg.seconds and returns
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(w workload, cfg runConfig) (*runResult, error) {
	reps := 1
	if !cfg.sz.smoke {
		reps = setupReps
		prefault(w.footprintMB << 20)
	}
	var in *instance
	var setups []float64
	var setupErr error
	setupSpeed, _ := calibrated(func() {
		for i := 0; i < reps && setupErr == nil; i++ {
			if in != nil {
				in.close()
			}
			start := time.Now()
			in, setupErr = w.setup(cfg.seed, cfg.sz)
			setups = append(setups, time.Since(start).Seconds())
		}
	})
	if setupErr != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, setupErr)
	}
	defer in.close()

	r := &runResult{Correct: true}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		win := measure(in, cfg, d, nil)
		verify(in, win, r)
		r.Metrics = endToEnd(in, win, median(setups)*setupSpeed)
		r.machine = machineNote(win)
		queries, _ := good(in, win)
		r.ops = countOps(queries)
		return r, nil
	}

	// Traced run: the same stream twice, untraced then traced, so that the
	// difference between the halves is the tracing overhead.
	untraced := measure(in, cfg, d/2, nil)
	before := in.counters()
	tr := newTracer()
	traced := measure(in, cfg, d/2, tr)
	after := in.counters()
	verify(in, untraced, r)
	verify(in, traced, r)
	r.Metrics = perLayer(in, untraced, traced, tr, before, after)
	r.SelfTimes = tr.selfTimes()
	r.machine = machineNote(traced)
	queries, _ := good(in, traced)
	r.ops = countOps(queries)
	if late := r.Metrics["bench.generator_late_ms_p90"]; late > ms(maxGeneratorLate) {
		r.fail("open-loop generator ran %.2f ms late (p90): the numbers are not valid", late)
	}
	kernelProbes(cfg.seed, cfg.sz, r.Metrics)
	valueProbes(in, r.Metrics)
	if in.extras != nil {
		if err := in.extras(r.Metrics); err != nil {
			r.fail("%v", err)
		}
	}
	for _, def := range layerDefs {
		if _, ok := r.Metrics[def.name]; !ok {
			r.Metrics[def.name] = 0
		}
	}
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.writeJSONL(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// wireMetric is a metric value as the driver reads it.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func defsFor(traced bool) []metricDef {
	if traced {
		return layerDefs
	}
	return endToEndDefs
}

// printResult writes the driver's result line.
func printResult(r *runResult, traced bool) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]wireMetric{}}
	for _, def := range defsFor(traced) {
		out.Metrics[def.name] = wireMetric{Value: r.Metrics[def.name], Unit: def.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printTable lists a run's metrics by name with their units on standard
// error, then the self-time table of a traced run.
func printTable(name string, r *runResult, traced bool) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Fprintf(os.Stderr, "\n== %s (%s): %d ops attempted, %d failed\n", name, pass, r.Attempted, r.Failed)
	for _, def := range defsFor(traced) {
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", def.name, r.Metrics[def.name], def.unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "  (%s)\n", r.machine)
	if !traced || r.ops == 0 {
		return
	}
	var opSelf, opTotal time.Duration
	for _, lt := range r.SelfTimes {
		if lt.Name == "op" {
			opSelf, opTotal = lt.Self, lt.Total
		}
	}
	fmt.Fprintf(os.Stderr, "  self time by layer (traced pass, %d ops):\n", r.ops)
	for _, lt := range r.SelfTimes {
		name := lt.Name
		if name == "op" {
			name = "(unattributed)"
		}
		fmt.Fprintf(os.Stderr, "    %-22s %10.3f ms/op %6.1f %% of op\n",
			name, ms(lt.Self)/float64(r.ops), 100*float64(lt.Self)/float64(opTotal))
	}
	fmt.Fprintf(os.Stderr, "    named spans cover %.1f %% of op time\n", 100*(1-float64(opSelf)/float64(opTotal)))
}

// environment records where a run was made.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		env.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// report is the --out file: every workload's metrics from one invocation.
type report struct {
	Env       environment               `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// workloadReport holds one workload's untraced and traced runs.
type workloadReport struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all six, untraced and traced)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs, op order, tenants and arrival times")
		seconds  = flag.Float64("seconds", 20, "length of the measured window in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		out      = flag.String("out", "", "write every workload's metrics to this JSON file (all-workloads mode)")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		compare  = flag.String("compare", "", "compare two --out files: --compare OLD.json NEW.json")
		smoke    = flag.Bool("smoke", false, "small matrices, one query per algorithm, one set-up (what the tests run)")
	)
	flag.Parse()
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: --compare OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(compareReports(*compare, flag.Arg(0), os.Stdout))
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "--seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced != 0, sz: sizing{smoke: *smoke}, traceOut: *traceOut}
	registerDatasets(cfg.seed, cfg.sz)

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		r, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printTable(w.name, r, cfg.trace)
		if err := printResult(r, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	rep := report{Env: currentEnvironment(), Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]workloadReport{}}
	failed := false
	for _, w := range workloads {
		entry := rep.Workloads[w.name]
		for _, tracedPass := range []bool{false, true} {
			c := cfg
			c.trace = tracedPass
			r, err := runWorkload(w, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			printTable(w.name, r, tracedPass)
			failed = failed || !r.Correct
			if tracedPass {
				entry.PerLayer = r
			} else {
				entry.EndToEnd = r
			}
		}
		rep.Workloads[w.name] = entry
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	names := make([]string, 0, len(rep.Workloads))
	for n := range rep.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "\nran %v on %+v\n", names, rep.Env)
	if failed {
		os.Exit(1)
	}
}
