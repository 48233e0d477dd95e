package integrity_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/serve"
)

// TestResultSummarisedOncePerDistinctValue: a served result names one value
// several times (H and H#1 are one object) and names its inputs, which do not
// change from query to query. A summary pass is made once per distinct matrix
// that has not been summarised before — never per name, and over A, b, H0 and
// x0 only by the first query to read the dataset.
func TestResultSummarisedOncePerDistinctValue(t *testing.T) {
	ds := data.Generate(data.Specs["red2"]) // not Load: these matrices nobody has summarised
	bound, err := ds.Inputs(algorithms.DFP)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]engine.Input{}
	isInput := map[*matrix.Matrix]string{}
	for _, in := range bound {
		inputs[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
		isInput[in.Data] = in.Name
		if _, carried := in.Data.Summary(); carried {
			t.Fatalf("input %s was summarised before the first query", in.Name)
		}
	}
	script, err := algorithms.Script(algorithms.DFP, 3)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	passes := map[*matrix.Matrix]int{}
	defer integrity.OnSummaryPass(func(m *matrix.Matrix) {
		mu.Lock()
		passes[m]++
		mu.Unlock()
	})()
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())

	for query, wantOverInputs := range []int{len(bound), 0} {
		clear(passes)
		q := serve.NewQuery(script, inputs)
		q.Dataset, q.Iterations = "red2", 3
		res, err := srv.Do(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[*matrix.Matrix]bool{}
		for _, m := range res.Values {
			distinct[m] = true
		}
		if len(distinct) >= len(res.Values) || res.Values["H"] != res.Values["H#1"] {
			t.Fatalf("%d names over %d values: the result was to name a value twice", len(res.Values), len(distinct))
		}
		overInputs := 0
		for m, n := range passes {
			if n != 1 || !distinct[m] {
				t.Errorf("query %d: %d passes over %v (a value of the result: %v)", query, n, m, distinct[m])
			}
			if isInput[m] != "" {
				overInputs++
			}
		}
		if overInputs != wantOverInputs {
			t.Errorf("query %d: passes over %d inputs, want %d", query, overInputs, wantOverInputs)
		}
		if fresh := len(distinct) - len(bound); len(passes)-overInputs != fresh {
			t.Errorf("query %d: %d passes over %d fresh values", query, len(passes)-overInputs, fresh)
		}
		for name, m := range res.Values {
			if vs := res.Summaries[name]; vs.Rows != m.Rows() || vs.Cols != m.Cols() || vs.Frobenius != math.Sqrt(integrity.Summarise(m).SumSq) {
				t.Errorf("query %d: summary of %s is %+v", query, name, vs)
			}
		}
		if res.ResultHash != serve.HashValues(res.Values) {
			t.Errorf("query %d: the result hash is not that of the values", query)
		}
	}
}
