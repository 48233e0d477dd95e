package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/opt"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo", Columns: []string{"a", "b"},
		Rows: []Row{
			{Label: "r1", Values: map[string]float64{"a": 1.5}},
			{Label: "r2", Values: map[string]float64{"a": 0.0042}, Text: map[string]string{"b": ">cap"}},
		},
		Notes: []string{"note text"},
	}
	s := tbl.String()
	for _, want := range []string{"== X: demo ==", "r1", "1.50", "0.0042", ">cap", "-", "note: note text"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTable2Experiment(t *testing.T) {
	tbl, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[1].Values["cols"] != 8700 {
		t.Error("cri2 cols wrong")
	}
}

func TestRunOneDefaultsAndMeasurements(t *testing.T) {
	out, err := runOne(runCfg{alg: algorithms.GD, dataset: "cri1", strategy: opt.Adaptive, iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.ExecSec <= 0 || out.PartitionSec <= 0 {
		t.Fatalf("missing measurements: %+v", out)
	}
	if len(out.WorkerShares) == 0 {
		t.Fatal("worker shares missing")
	}
	if len(out.Selected) == 0 {
		t.Fatal("adaptive on cri1 should select options")
	}
}

func TestRunOneUnknownDatasetErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from MustLoad")
		}
	}()
	runOne(runCfg{alg: algorithms.GD, dataset: "nope", strategy: opt.Adaptive})
}

func TestOptionCensusExperiment(t *testing.T) {
	tbl, err := OptionCensus()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Row{}
	for _, r := range tbl.Rows {
		byLabel[r.Label] = r
	}
	dfp := byLabel["DFP"]
	if dfp.Values["options"] < 10 {
		t.Errorf("DFP options = %v, expected at least a dozen", dfp.Values["options"])
	}
	if dfp.Values["LSE"] == 0 {
		t.Error("DFP must have LSE options (AᵀA, Aᵀb)")
	}
	if byLabel["GNMF"].Values["options"] == 0 {
		t.Error("GNMF should have options")
	}
}

func TestFig13WorkBalance(t *testing.T) {
	tbl, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // cri2 + 5 zipf
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		// Hash partitioning keeps shares near ideal even at zipf-2.8.
		if r.Values["max"] > 2.5*r.Values["ideal"] {
			t.Errorf("%s: max share %.3f too far above ideal %.3f", r.Label, r.Values["max"], r.Values["ideal"])
		}
		if r.Values["min"] <= 0 {
			t.Errorf("%s: zero min share", r.Label)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	have := map[string]bool{}
	for _, id := range IDs() {
		if have[id] {
			t.Errorf("experiment %q registered twice", id)
		}
		have[id] = true
	}
	// Every table and figure of the evaluation section must be covered.
	want := []string{"table2", "fig3a", "fig3b", "fig8a", "fig8b", "fig9", "fig10a", "fig10b", "fig11", "fig12", "fig13"}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestExtensionExperimentsHoldTheirGates runs the two seeded extensions for
// their built-in gates (ABFT overhead within 10% of simulated time; under
// verify=abft every injected corruption detected and none silent) and twice
// over: they are on the simulated clock, so the tables must not move.
func TestExtensionExperimentsHoldTheirGates(t *testing.T) {
	for _, id := range []string{"faults", "integrity"} {
		first, err := Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		again, err := Run(id)
		if err != nil {
			t.Fatalf("%s, second run: %v", id, err)
		}
		if first.String() != again.String() {
			t.Errorf("%s differs between two runs:\n%s\n%s", id, first, again)
		}
	}
}

// TestTableJSONKeysGolden pins the remac-bench -json contract: an array of
// tables under these keys.
func TestTableJSONKeysGolden(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Columns: []string{"a"}, Notes: []string{"n"},
		Rows: []Row{{Label: "r", Values: map[string]float64{"a": 1}, Text: map[string]string{"a": "x"}}}}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	var out []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out) != 1 {
		t.Fatalf("output is not a one-table array: %v\n%s", err, buf.String())
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(out[0]["rows"], &rows); err != nil || len(rows) != 1 {
		t.Fatalf("rows is not a one-row array: %v", err)
	}
	keys := func(m map[string]json.RawMessage) []string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if got, want := keys(out[0]), []string{"columns", "id", "notes", "rows", "title"}; !reflect.DeepEqual(got, want) {
		t.Errorf("table keys = %q, want %q", got, want)
	}
	if got, want := keys(rows[0]), []string{"label", "text", "values"}; !reflect.DeepEqual(got, want) {
		t.Errorf("row keys = %q, want %q", got, want)
	}
}

func TestFig8aSearchComparison(t *testing.T) {
	tbl, err := Fig8a()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		if r.Label == "DFP" {
			if r.Text["tree-wise"] != ">cap" {
				t.Error("tree-wise must time out on DFP")
			}
			if bw, ok := r.Values["block-wise"]; !ok || bw > 1000 {
				t.Errorf("block-wise on DFP took %vms, expected milliseconds", bw)
			}
		}
		if r.Label == "PartialDFP" {
			if _, ok := r.Values["SPORES"]; !ok {
				t.Error("SPORES must be measured on partial DFP")
			}
		}
	}
}
