package remac_test

import (
	"context"
	"strings"
	"testing"

	"remac"
	"remac/internal/engine"
	"remac/internal/httpapi"
)

const apiScript = `
#@symmetric H
A = read("A")
x = read("x")
H = read("H")
i = 0
while (i < 5) {
    v = as.scalar(t(x) %*% t(A) %*% A %*% x)
    x = H %*% x - 0.001 * v * x
    i = i + 1
}
`

func apiInputs() map[string]remac.Input {
	return map[string]remac.Input{
		"A": {Data: remac.RandSparse(1, 500, 50, 0.1), VirtualRows: 5_000_000, VirtualCols: 50},
		"x": {Data: remac.RandDense(2, 50, 1)},
		"H": {Data: remac.Identity(50)},
	}
}

func TestCompileRunRoundTrip(t *testing.T) {
	prog, err := remac.Compile(apiScript, apiInputs(), remac.Config{
		Strategy: remac.Adaptive, Iterations: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 5 {
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	if rep.SimulatedSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	if rep.Values["v"] == nil || !rep.Values["v"].IsScalar() {
		t.Fatal("scalar v missing")
	}
	if rep.TotalSeconds() < rep.SimulatedSeconds {
		t.Fatal("TotalSeconds must include compilation")
	}
	if rep.Trace != nil {
		t.Fatal("an untraced run carries a trace")
	}
	traced, err := prog.RunContext(context.Background(), remac.RunOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || len(traced.Trace.StatementCosts()) == 0 || traced.SimulatedSeconds != rep.SimulatedSeconds {
		t.Fatalf("traced run: trace %v, simulated %v s, want a trace with statements and %v s", traced.Trace, traced.SimulatedSeconds, rep.SimulatedSeconds)
	}
}

func TestStrategiesAgreeThroughPublicAPI(t *testing.T) {
	var ref *remac.Matrix
	for _, s := range []remac.Strategy{remac.NoElimination, remac.Explicit, remac.Conservative, remac.Aggressive, remac.Automatic, remac.Adaptive} {
		prog, err := remac.Compile(apiScript, apiInputs(), remac.Config{Strategy: s, Iterations: 5})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rep, err := prog.Run()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		x := rep.Values["x"]
		if ref == nil {
			ref = x
			continue
		}
		if !x.ApproxEqual(ref, 1e-8) {
			t.Errorf("strategy %v changed the result", s)
		}
	}
}

func TestOptionsAndExplain(t *testing.T) {
	prog, err := remac.Compile(apiScript, apiInputs(), remac.Config{Strategy: remac.Adaptive, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := prog.Options()
	if len(opts) == 0 {
		t.Fatal("no options discovered")
	}
	foundSelected := false
	for _, o := range opts {
		if o.Kind == "" || o.Key == "" || o.Occurrences == 0 {
			t.Errorf("malformed option %+v", o)
		}
		if o.Selected {
			foundSelected = true
		}
	}
	if !foundSelected && len(prog.SelectedKeys()) > 0 {
		t.Error("Selected flags inconsistent with SelectedKeys")
	}
	explain := prog.Explain()
	for _, want := range []string{"coordinates:", "options found:", "strategy:"} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain() missing %q", want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := remac.Compile("x = ", nil, remac.Config{}); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := remac.Compile("x = read(\"A\")\ny = x %*% x", map[string]remac.Input{
		"A": {Data: remac.RandDense(1, 3, 4)},
	}, remac.Config{}); err == nil {
		t.Error("dimension error not reported")
	}
	if _, err := remac.Compile("x = 1", map[string]remac.Input{"A": {}}, remac.Config{}); err == nil {
		t.Error("nil input data not reported")
	}
}

// TestCompileRejectsUnknownNames: a mistyped strategy, estimator or combiner
// is an error naming the accepted values, not a run under the default; the
// empty string stays the default.
func TestCompileRejectsUnknownNames(t *testing.T) {
	inputs := map[string]remac.Input{"A": {Data: remac.RandDense(1, 4, 4)}}
	for _, tc := range []struct {
		name string
		cfg  remac.Config
		want []string // substrings of the error; nil: compiles
	}{
		{"defaults", remac.Config{}, nil},
		{"named defaults", remac.Config{Strategy: remac.Adaptive, Estimator: remac.MNC, Combiner: remac.DP}, nil},
		{"every other name", remac.Config{Strategy: remac.NoElimination, Estimator: remac.MD, Combiner: remac.EnumBFS}, nil},
		{"mistyped strategy", remac.Config{Strategy: "agressive"}, []string{`strategy "agressive"`, "aggressive", "adaptive", "none"}},
		{"case matters", remac.Config{Strategy: "Adaptive"}, []string{`strategy "Adaptive"`}},
		{"mistyped estimator", remac.Config{Estimator: "mnc"}, []string{`estimator "mnc"`, "MD", "MNC"}},
		{"dropped estimator", remac.Config{Estimator: "Sample"}, []string{`unknown estimator "Sample"`, "MD", "MNC"}},
		{"mistyped combiner", remac.Config{Combiner: "Enum"}, []string{`combiner "Enum"`, "DP", "Enum-DFS", "Enum-BFS"}},
	} {
		_, err := remac.Compile("A = read(\"A\")\nx = A %*% A", inputs, tc.cfg)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: compiled", tc.name)
			continue
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}

func TestBuiltinDatasetsAndWorkloads(t *testing.T) {
	if len(remac.Datasets()) != 6 || len(remac.ZipfDatasets()) != 5 {
		t.Fatal("built-in dataset lists wrong")
	}
	ds, err := remac.LoadDataset("cri2")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "cri2" {
		t.Error("name mismatch")
	}
	vr, vc := ds.VirtualDims()
	if vr != 58_400_000 || vc != 8700 {
		t.Errorf("virtual dims %dx%d", vr, vc)
	}
	if ds.Design().Sparsity() > 0.01 {
		t.Error("cri2 should be sparse")
	}
	for _, w := range remac.Workloads() {
		if _, err := ds.Inputs(w); err != nil {
			t.Errorf("Inputs(%s): %v", w, err)
		}
		if _, err := remac.WorkloadScript(w, 3); err != nil {
			t.Errorf("WorkloadScript(%s): %v", w, err)
		}
		if remac.WorkloadIterations(w) < 1 {
			t.Errorf("WorkloadIterations(%s) < 1", w)
		}
	}
	if _, err := remac.LoadDataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := ds.Inputs("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestFrontEndsBindTheSameInputs: the library and the HTTP query builder
// bind the same symbols, shapes and virtual dimensions for every workload.
func TestFrontEndsBindTheSameInputs(t *testing.T) {
	ds, err := remac.LoadDataset("cri1")
	if err != nil {
		t.Fatal(err)
	}
	builder := httpapi.NewQueryBuilder(engine.RecoveryPolicy{})
	for _, w := range remac.Workloads() {
		lib, err := ds.Inputs(w)
		if err != nil {
			t.Fatal(err)
		}
		q, err := builder.Build(httpapi.QueryRequest{Algorithm: w, Dataset: "cri1", Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Inputs) != len(lib) {
			t.Errorf("%s: builder binds %d symbols, library %d", w, len(q.Inputs), len(lib))
		}
		for name, in := range lib {
			got, ok := q.Inputs[name]
			if !ok {
				t.Errorf("%s: builder does not bind %s", w, name)
				continue
			}
			if got.VRows != in.VirtualRows || got.VCols != in.VirtualCols ||
				got.Data.Rows() != in.Data.Rows() || got.Data.Cols() != in.Data.Cols() {
				t.Errorf("%s: %s bound with different dimensions", w, name)
			}
		}
	}
	// A raw script may read any least-squares symbol, so it gets all four.
	q, err := builder.Build(httpapi.QueryRequest{Script: `x = read("x0")`, Dataset: "cri1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "b", "H0", "x0"} {
		if _, ok := q.Inputs[name]; !ok || len(q.Inputs) != 4 {
			t.Errorf("raw script: %s bound = %v among %d symbols, want the four least-squares symbols", name, ok, len(q.Inputs))
		}
	}
}

func TestMatrixConstructors(t *testing.T) {
	d := remac.NewDense(2, 2, []float64{1, 2, 3, 4})
	if d.At(1, 0) != 3 || d.NNZ() != 4 {
		t.Error("NewDense wrong")
	}
	z := remac.Zeros(3, 3)
	if z.NNZ() != 0 {
		t.Error("Zeros wrong")
	}
	id := remac.Identity(4)
	if id.At(2, 2) != 1 || id.At(0, 1) != 0 {
		t.Error("Identity wrong")
	}
	c := remac.NewCSR(2, 3, []int{0, 1, 1}, []int{2}, []float64{7})
	if c.At(0, 2) != 7 || c.Sparsity() == 0 {
		t.Error("NewCSR wrong")
	}
	s := remac.ZipfSparse(9, 100, 100, 0.05, 2.0)
	if s.NNZ() == 0 {
		t.Error("ZipfSparse empty")
	}
	if got := remac.RandDense(1, 2, 2).String(); got == "" {
		t.Error("String empty")
	}
}

func TestSingleNodeClusterProfile(t *testing.T) {
	// The single-node profile of Fig 3(b): everything local, so transmission
	// must vanish.
	prog, err := remac.Compile(apiScript, apiInputs(), remac.Config{
		Strategy: remac.Adaptive, Iterations: 5, Cluster: remac.SingleNodeCluster(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := prog.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Network primitives degenerate to in-memory copies on one node.
	if rep.TransmitSeconds > 0.2 {
		t.Fatalf("single-node run transmitted %.2fs; expected near-zero", rep.TransmitSeconds)
	}
}
