package main

import (
	"context"
	"math"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// Each reference must agree with the engine under NoElimination on a small
// generated matrix, and the checker must reject a perturbed result.
func TestReferenceAgreesWithEngine(t *testing.T) {
	ds := data.Generate(data.Spec{Name: "reference-test", VRows: 200_000, VCols: 30, Sparsity: 0.5, ScaleRows: 200})
	if ds.A.Rows() != 200 || ds.A.Cols() != 30 {
		t.Fatalf("generated %dx%d, want 200x30", ds.A.Rows(), ds.A.Cols())
	}
	for _, alg := range algorithms.All {
		script, err := algorithms.Script(alg, loopIterations)
		if err != nil {
			t.Fatal(err)
		}
		q := libQuery{kind: queryKind{alg, "reference-test"}, script: script, inputs: bindInputs(alg, ds)}
		plan, err := compileQuery(context.Background(), nil, -1, -1, q, opt.NoElimination)
		if err != nil {
			t.Fatalf("%s: compile: %v", alg, err)
		}
		got, err := runPlan(context.Background(), nil, -1, -1, q, plan)
		if err != nil {
			t.Fatalf("%s: run: %v", alg, err)
		}
		ref, err := referenceOf(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(ref, got.values); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
		for name, m := range got.values {
			// Off by a thousandth of the largest magnitude, in one cell.
			largest := 0.0
			for _, v := range flat(m) {
				largest = math.Max(largest, math.Abs(v))
			}
			bad := m.ToDense().Clone()
			bad.Set(0, 0, bad.At(0, 0)+1e-3*largest)
			perturbed := map[string]*matrix.Matrix{}
			for n, v := range got.values {
				perturbed[n] = v
			}
			perturbed[name] = bad
			if checkAnswer(ref, perturbed) == nil {
				t.Errorf("%s: a perturbed %s passed the check", alg, name)
			}
			if bitwiseEqual(m, bad) {
				t.Errorf("%s: a perturbed %s is bitwise equal to the original", alg, name)
			}
		}
	}
}
