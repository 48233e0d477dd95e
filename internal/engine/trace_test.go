package engine

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/cluster"
	"remac/internal/opt"
	"remac/internal/trace"
)

// runTraced compiles and runs a workload with a recorder attached.
func runTraced(t *testing.T, alg algorithms.Name, dsName string, strategy opt.Strategy) (*Result, *trace.Recorder) {
	t.Helper()
	c := compileFor(t, alg, dsName, strategy)
	rec := trace.New()
	res, err := RunWithOptions(context.Background(), c, inputsFor(t, alg, dsName), rec, RunOptions{})
	if err != nil {
		t.Fatalf("%v/%s/%v: run: %v", alg, dsName, strategy, err)
	}
	return res, rec
}

// TestSpanSumsEqualClusterStats is the tentpole acceptance test: over a
// full run, the summed span seconds, FLOP, op counts and per-primitive
// bytes equal the cluster's Stats() totals. Every ChargeProfile call is
// mirrored by exactly one span, so any accounting drift between the trace
// and the simulated clock fails here.
func TestSpanSumsEqualClusterStats(t *testing.T) {
	cases := []struct {
		alg      algorithms.Name
		strategy opt.Strategy
	}{
		{algorithms.DFP, opt.Adaptive},
		{algorithms.DFP, opt.NoElimination},
		{algorithms.GNMF, opt.Adaptive}, // covers Sum and aliased ewise
		{algorithms.GD, opt.Aggressive},
	}
	const tol = 1e-9
	for _, tc := range cases {
		res, rec := runTraced(t, tc.alg, "cri2", tc.strategy)
		sum := rec.Summary()
		s := res.Stats
		if sum.Ops == 0 {
			t.Fatalf("%v/%v: no operator spans recorded", tc.alg, tc.strategy)
		}
		if sum.Ops != s.Ops {
			t.Errorf("%v/%v: span ops %d != cluster ops %d", tc.alg, tc.strategy, sum.Ops, s.Ops)
		}
		if math.Abs(sum.ComputeSec-s.ComputeTime) > tol {
			t.Errorf("%v/%v: compute spans %g vs stats %g", tc.alg, tc.strategy, sum.ComputeSec, s.ComputeTime)
		}
		if math.Abs(sum.TransmitSec-s.TransmitTime) > tol {
			t.Errorf("%v/%v: transmit spans %g vs stats %g", tc.alg, tc.strategy, sum.TransmitSec, s.TransmitTime)
		}
		if relDiff(sum.FLOP, s.FLOP) > tol {
			t.Errorf("%v/%v: flop spans %g vs stats %g", tc.alg, tc.strategy, sum.FLOP, s.FLOP)
		}
		for _, p := range cluster.Primitives {
			if relDiff(sum.Bytes[p.String()], s.BytesFor(p)) > tol {
				t.Errorf("%v/%v: %v bytes spans %g vs stats %g",
					tc.alg, tc.strategy, p, sum.Bytes[p.String()], s.BytesFor(p))
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

func TestTraceGroupStructure(t *testing.T) {
	res, rec := runTraced(t, algorithms.DFP, "cri2", opt.Adaptive)
	iterations, statements, orphanOps := 0, 0, 0
	byID := map[int64]trace.Span{}
	for _, s := range rec.Spans() {
		byID[s.ID] = s
	}
	for _, s := range rec.Spans() {
		switch {
		case s.Group && s.Kind == "iteration":
			iterations++
		case s.Group && s.Kind == "stmt":
			statements++
		case !s.Group && s.Parent == 0:
			orphanOps++
		}
		if s.Group && (s.ComputeSec != 0 || s.TransmitSec != 0 || s.FLOP != 0 || len(s.Bytes) != 0) {
			t.Fatalf("group span %q carries cost — double counting", s.Label)
		}
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %d has dangling parent %d", s.ID, s.Parent)
			}
		}
	}
	if iterations != res.Iterations {
		t.Errorf("iteration group spans = %d, want %d", iterations, res.Iterations)
	}
	if statements == 0 {
		t.Error("no statement group spans recorded")
	}
	if orphanOps != 0 {
		t.Errorf("%d operator spans outside any statement", orphanOps)
	}

	// The per-statement view must cover every operator span.
	ops := 0
	for _, g := range rec.GroupCosts("stmt") {
		ops += g.Ops
	}
	if want := rec.Summary().Ops; ops != want {
		t.Errorf("statement groups cover %d ops, want %d", ops, want)
	}
}

// TestTraceJSONLCoversOperators checks the -trace serialization end to end:
// every charged operator — including sum — appears as a valid JSON line.
func TestTraceJSONLCoversOperators(t *testing.T) {
	_, rec := runTraced(t, algorithms.GNMF, "cri2", opt.Adaptive)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s trace.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("invalid span line %q: %v", sc.Text(), err)
		}
		if !s.Group {
			kinds[s.Kind]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"dfs-read", "mul", "ewise", "sum"} {
		if kinds[kind] == 0 {
			t.Errorf("no %q spans in the GNMF trace (got %v)", kind, kinds)
		}
	}
}

// TestUntracedRunUnchanged pins backward compatibility: Run without a
// recorder produces identical simulated accounting.
func TestUntracedRunUnchanged(t *testing.T) {
	plain := compileAndRun(t, algorithms.DFP, "cri2", opt.Adaptive)
	traced, _ := runTraced(t, algorithms.DFP, "cri2", opt.Adaptive)
	if plain.Stats.Ops != traced.Stats.Ops ||
		plain.Stats.TotalTime() != traced.Stats.TotalTime() ||
		plain.Stats.TotalBytes() != traced.Stats.TotalBytes() {
		t.Fatalf("tracing changed accounting: %+v vs %+v", plain.Stats, traced.Stats)
	}
}
