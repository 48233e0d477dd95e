package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"remac"
	"remac/internal/algorithms"
	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/opt"
	"remac/internal/serve"
)

const testSeed = 7

var smokeConfig = runConfig{seed: testSeed, seconds: 0.3, sz: sizing{smoke: true}}

func TestMain(m *testing.M) {
	registerDatasets(testSeed, smokeConfig.sz)
	os.Exit(m.Run())
}

// declaredBenchmark is BENCHMARK.json as the driver reads it.
type declaredBenchmark struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declaredBenchmark {
	t.Helper()
	var d declaredBenchmark
	if err := readJSON(filepath.Join("..", benchmarkFile), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// BENCHMARK.json must declare exactly the metrics the program defines, with
// the same unit and direction, and workloads the program has, with the same
// "why" (the driver's time limit affords fewer than the program can run).
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver needs 2", len(d.Workloads))
	}
	for _, dw := range d.Workloads {
		if w, ok := findWorkload(dw.Name); !ok || dw.Why != w.why {
			t.Errorf("workload %q: BENCHMARK.json has %q, the program %q (found: %v)", dw.Name, dw.Why, w.why, ok)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(d.EndToEnd), len(endToEndDefs))
	}
	for i, def := range endToEndDefs {
		got := d.EndToEnd[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if !name.MatchString(def.name) || got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name or bound %g", def.name, got.Bound)
		}
	}
	if len(d.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(d.PerLayer), len(layerDefs))
	}
	for i, def := range layerDefs {
		got := d.PerLayer[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if !name.MatchString(def.name) {
			t.Errorf("per-layer metric name %q is not well formed", def.name)
		}
	}
}

func checkMetrics(t *testing.T, workload string, r *runResult, defs []metricDef, nonZero bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", workload, r.Correct, r.Attempted, r.Failed, r.Errors)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(r.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := r.Metrics[def.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", workload, def.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: metric %s is %g", workload, def.name, v)
		case nonZero && v <= 0:
			t.Errorf("%s: end-to-end metric %s is %g, want > 0", workload, def.name, v)
		}
	}
}

// Every workload runs in the smoke configuration, untraced and traced, and
// emits exactly the declared metrics; the exact counts of the one-client
// workloads repeat bit for bit under one seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig
		r, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name, r, endToEndDefs, true)

		cfg.trace = true
		cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
		first, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name, first, layerDefs, false)
		if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", w.name, err)
		}
		if !exactWorkloads[w.name] {
			continue
		}
		second, err := runWorkload(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, def := range layerDefs {
			if def.exact && first.Metrics[def.name] != second.Metrics[def.name] {
				t.Errorf("%s: exact metric %s differs across two runs of one seed: %v, %v",
					w.name, def.name, first.Metrics[def.name], second.Metrics[def.name])
			}
		}
	}
}

// The traced pass must attribute the op to the layers the workload is
// meant to stress, and to none it is meant to bypass.
func TestBypassPredictions(t *testing.T) {
	traced := smokeConfig
	traced.trace = true
	run := func(name string) map[string]float64 {
		w, _ := findWorkload(name)
		r, err := runWorkload(w, traced)
		if err != nil {
			t.Fatal(err)
		}
		return r.Metrics
	}
	compile, exec, warm := run("compile_cold"), run("exec_heavy"), run("serve_warm")
	if compile["opt.compile_ms"] <= 0 || compile["engine.run_ms"] != 0 {
		t.Errorf("compile_cold: opt.compile_ms=%g engine.run_ms=%g", compile["opt.compile_ms"], compile["engine.run_ms"])
	}
	if exec["engine.run_ms"] <= 0 || exec["opt.compile_ms"] != 0 {
		t.Errorf("exec_heavy: engine.run_ms=%g opt.compile_ms=%g", exec["engine.run_ms"], exec["opt.compile_ms"])
	}
	if exec["cluster.sim_speedup_x"] <= 0 {
		t.Errorf("exec_heavy: cluster.sim_speedup_x=%g", exec["cluster.sim_speedup_x"])
	}
	for _, name := range []string{"gateway.do_ms", "gateway.overhead_ms", "httpapi.build_ms", "httpapi.decode_us", "serve.mqo_batched"} {
		if warm[name] != 0 {
			t.Errorf("serve_warm: %s=%g, want 0", name, warm[name])
		}
	}
	if warm["serve.plan_hit_rate"] < 0.95 {
		t.Errorf("serve_warm: plan hit rate %g", warm["serve.plan_hit_rate"])
	}
}

// The library workloads' call sequence must give what the public API gives.
func TestLibraryPathMatchesPublicAPI(t *testing.T) {
	kind := queryKind{algorithms.DFP, "cri2"}
	queries, err := libQueries([]queryKind{kind}, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compileQuery(context.Background(), nil, -1, -1, queries[0], opt.Adaptive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPlan(context.Background(), nil, -1, -1, queries[0], plan)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := remac.LoadDataset(datasetName(kind.base, testSeed))
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := ds.Inputs(string(kind.alg))
	if err != nil {
		t.Fatal(err)
	}
	script, err := remac.WorkloadScript(string(kind.alg), loopIterations)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := remac.Compile(script, inputs, remac.Config{Iterations: loopIterations})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, have := rep.Values["x"], got.values["x"]
	if want.Rows() != have.Rows() || want.Cols() != have.Cols() {
		t.Fatalf("x is %dx%d, the public API gives %dx%d", have.Rows(), have.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		if math.Float64bits(want.At(i, 0)) != math.Float64bits(have.At(i, 0)) {
			t.Fatalf("x[%d] = %g, the public API gives %g", i, have.At(i, 0), want.At(i, 0))
		}
	}
	if rep.SimulatedSeconds != got.simSec {
		t.Errorf("simulated seconds %g, the public API gives %g", got.simSec, rep.SimulatedSeconds)
	}
}

// The tier workloads' op must return the result hash a real POST /query to a
// shard front-end returns.
func TestTierOpMatchesHTTP(t *testing.T) {
	tq := algorithmRequest(queryKind{algorithms.BFGS, "red2"}, testSeed)
	tr := startTier(0)
	defer tr.close()
	got, err := tr.query(context.Background(), nil, -1, -1, tenants[0], tq.body)
	if err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	front := httptest.NewServer(httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{}))
	defer front.Close()
	resp, err := http.Post(front.URL+"/query", "application/json", bytes.NewReader(tq.body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr httpapi.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseUint(qr.ResultHash, 16, 64)
	if err != nil {
		t.Fatalf("POST /query: status %d, result_hash %q: %v", resp.StatusCode, qr.ResultHash, err)
	}
	if got.hash != want {
		t.Errorf("tier op hash %016x, POST /query gives %016x", got.hash, want)
	}
}

// The comparison must pass two equal reports and flag a regression beyond
// the bound and a changed exact count.
func TestCompare(t *testing.T) {
	d := readDeclared(t)
	dir := t.TempDir()
	write := func(name string, rep report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	build := func(latency, flop float64) report {
		rep := report{Seed: 1, Workloads: map[string]workloadReport{}}
		e2e := &runResult{Correct: true, Metrics: map[string]float64{}}
		for _, m := range d.EndToEnd {
			e2e.Metrics[m.Name] = 10
		}
		e2e.Metrics["latency_ms_p50"] = latency
		rep.Workloads["exec_heavy"] = workloadReport{
			EndToEnd: e2e,
			PerLayer: &runResult{Correct: true, Metrics: map[string]float64{"engine.flop_g": flop}},
		}
		return rep
	}
	base := write("base.json", build(10, 5))
	var out bytes.Buffer
	if code := compareReports(base, write("same.json", build(10.2, 5)), &out); code != 0 {
		t.Errorf("equal reports: exit %d\n%s", code, out.String())
	}
	if code := compareReports(base, write("slow.json", build(14, 5)), &out); code != 1 {
		t.Errorf("latency +40 %%: exit %d", code)
	}
	if code := compareReports(base, write("flop.json", build(10, 6)), &out); code != 1 {
		t.Errorf("changed exact count: exit %d", code)
	}
}
