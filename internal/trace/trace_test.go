package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"remac/internal/cluster"
	"remac/internal/cost"
	"remac/internal/sparsity"
)

// sampleBreakdown is a fixed operator cost used across the tests.
func sampleBreakdown() cost.Breakdown {
	bd := cost.Breakdown{
		ComputeSec:  1.5,
		TransmitSec: 0.5,
		FLOP:        2e9,
		Method:      cost.BMM,
	}
	bd.Bytes[cluster.Shuffle] = 1e6
	bd.Bytes[cluster.Broadcast] = 2e6
	return bd
}

func TestOpSpanFields(t *testing.T) {
	in := sparsity.MetaDims(100, 50, 0.1)
	out := sparsity.MetaDims(100, 10, 0.5)
	s := Op("mul", "mul/BMM", sampleBreakdown(), []sparsity.Meta{in, in}, &out, 42*time.Nanosecond)
	if s.Kind != "mul" || s.Label != "mul/BMM" || s.Method != "BMM" {
		t.Fatalf("kind/label/method = %q/%q/%q", s.Kind, s.Label, s.Method)
	}
	if len(s.In) != 2 || s.In[0].Rows != 100 || s.In[0].Sparsity != 0.1 {
		t.Fatalf("inputs not recorded: %+v", s.In)
	}
	if s.Out == nil || s.Out.Cols != 10 {
		t.Fatalf("output not recorded: %+v", s.Out)
	}
	if s.TotalSec() != 2.0 {
		t.Errorf("TotalSec = %g, want 2", s.TotalSec())
	}
	if s.Bytes["shuffle"] != 1e6 || s.Bytes["broadcast"] != 2e6 {
		t.Errorf("bytes map wrong: %v", s.Bytes)
	}
	if _, ok := s.Bytes["collect"]; ok {
		t.Error("uncharged primitives must not appear in the bytes map")
	}
	if s.WallNS != 42 {
		t.Errorf("WallNS = %d, want 42", s.WallNS)
	}
}

// TestSpanJSONGolden pins the serialized span schema: external consumers of
// the -trace JSONL files depend on these exact keys.
func TestSpanJSONGolden(t *testing.T) {
	rec := NewRun("dfp/cri2/adaptive")
	stmt := rec.Begin("stmt", "g")
	out := sparsity.MetaDims(100, 10, 0.5)
	rec.Record(Op("mul", "mul/BMM", sampleBreakdown(), []sparsity.Meta{sparsity.MetaDims(100, 50, 0.1)}, &out, 42*time.Nanosecond))
	rec.End(stmt)

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	got, err := json.Marshal(spans[1])
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":2,"parent":1,"kind":"mul","label":"mul/BMM","run":"dfp/cri2/adaptive",` +
		`"method":"BMM","local":false,` +
		`"in":[{"rows":100,"cols":50,"sparsity":0.1}],` +
		`"out":{"rows":100,"cols":10,"sparsity":0.5},` +
		`"flop":2000000000,"compute_sec":1.5,"transmit_sec":0.5,` +
		`"bytes":{"broadcast":2000000,"shuffle":1000000},"wall_ns":42}`
	if string(got) != want {
		t.Errorf("span JSON schema drifted:\n got %s\nwant %s", got, want)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if id := r.Record(Span{Kind: "mul"}); id != 0 {
		t.Error("nil Record should return 0")
	}
	id := r.Begin("stmt", "x")
	r.End(id)
	if r.Spans() != nil {
		t.Error("nil Spans should be nil")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if s := r.Summary(); s.Ops != 0 {
		t.Error("nil Summary should be empty")
	}
	if len(r.GroupCosts("stmt")) != 0 {
		t.Error("nil GroupCosts should be empty")
	}
}

func TestParentingAndNesting(t *testing.T) {
	rec := New()
	iter := rec.Begin("iteration", "iteration 1")
	stmt := rec.Begin("stmt", "g")
	op := rec.Record(Span{Kind: "mul", Label: "mul/BMM"})
	rec.End(stmt)
	orphanStmt := rec.Begin("stmt", "x")
	rec.End(orphanStmt)
	rec.End(iter)
	after := rec.Record(Span{Kind: "sum", Label: "sum"})

	spans := rec.Spans()
	byID := map[int64]Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	if byID[stmt].Parent != iter {
		t.Errorf("stmt parent = %d, want iteration %d", byID[stmt].Parent, iter)
	}
	if byID[op].Parent != stmt {
		t.Errorf("op parent = %d, want stmt %d", byID[op].Parent, stmt)
	}
	if byID[after].Parent != 0 {
		t.Errorf("span after all Ends should have no parent, got %d", byID[after].Parent)
	}
	if !byID[iter].Group || byID[op].Group {
		t.Error("group flags wrong")
	}
	if byID[iter].WallNS < byID[stmt].WallNS {
		t.Error("enclosing group wall time should cover the inner group")
	}
}

func TestSummaryAggregatesOperatorSpansOnly(t *testing.T) {
	rec := New()
	id := rec.Begin("stmt", "g")
	bd := sampleBreakdown()
	out := sparsity.MetaDims(10, 10, 1)
	rec.Record(Op("mul", "mul/BMM", bd, nil, &out, 0))
	rec.Record(Op("mul", "mul/CPMM", bd, nil, &out, 0))
	rec.Record(Op("ewise", "ewise/+", cost.Breakdown{ComputeSec: 0.25, FLOP: 1e6}, nil, &out, 0))
	rec.End(id)

	sum := rec.Summary()
	if sum.Ops != 3 {
		t.Fatalf("Ops = %d, want 3 (group spans excluded)", sum.Ops)
	}
	if sum.FLOP != 2*2e9+1e6 {
		t.Errorf("FLOP = %g", sum.FLOP)
	}
	if sum.ComputeSec != 3.25 || sum.TransmitSec != 1.0 {
		t.Errorf("seconds = %g/%g", sum.ComputeSec, sum.TransmitSec)
	}
	if sum.Bytes["shuffle"] != 2e6 || sum.Bytes["broadcast"] != 4e6 {
		t.Errorf("bytes = %v", sum.Bytes)
	}
	if len(sum.ByKind) != 2 || sum.ByKind[0].Kind != "mul" || sum.ByKind[1].Kind != "ewise" {
		t.Fatalf("ByKind order wrong: %+v", sum.ByKind)
	}
	if sum.ByKind[0].Ops != 2 || sum.ByKind[0].TotalSec() != 4.0 {
		t.Errorf("mul kind stat wrong: %+v", sum.ByKind[0])
	}
}

func TestGroupCosts(t *testing.T) {
	rec := New()
	// Statement "g" runs twice (two iterations), "x" once, plus one charge
	// outside any statement.
	rec.Record(Span{Kind: "dfs-read", TransmitSec: 7})
	for i := 0; i < 2; i++ {
		iter := rec.Begin("iteration", "iteration")
		g := rec.Begin("stmt", "g")
		rec.Record(Span{Kind: "mul", ComputeSec: 1, TransmitSec: 2, FLOP: 10})
		rec.End(g)
		rec.End(iter)
	}
	x := rec.Begin("stmt", "x")
	rec.Record(Span{Kind: "ewise", ComputeSec: 0.5})
	rec.End(x)

	costs := rec.GroupCosts("stmt")
	if len(costs) != 3 {
		t.Fatalf("got %d groups: %+v", len(costs), costs)
	}
	if costs[0].Label != "" || costs[0].Ops != 1 || costs[0].TransmitSec != 7 {
		t.Errorf("orphan group wrong: %+v", costs[0])
	}
	if costs[1].Label != "g" || costs[1].Executions != 2 || costs[1].Ops != 2 ||
		costs[1].ComputeSec != 2 || costs[1].TransmitSec != 4 || costs[1].FLOP != 20 {
		t.Errorf("statement g wrong: %+v", costs[1])
	}
	if costs[2].Label != "x" || costs[2].Executions != 1 || costs[2].Ops != 1 {
		t.Errorf("statement x wrong: %+v", costs[2])
	}

	text := FormatGroupCosts(costs)
	if !strings.Contains(text, "(outside statements)") || !strings.Contains(text, "g") {
		t.Errorf("formatted table missing rows:\n%s", text)
	}
}

func TestWriteJSONLValid(t *testing.T) {
	rec := NewRun("run")
	id := rec.Begin("stmt", "g")
	out := sparsity.MetaDims(4, 4, 1)
	rec.Record(Op("mul", "mul/local", cost.Breakdown{ComputeSec: 1, Method: cost.LocalOp, Local: true}, nil, &out, time.Microsecond))
	rec.End(id)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d invalid: %v", lines+1, err)
		}
		if s.Run != "run" {
			t.Errorf("line %d run label = %q", lines+1, s.Run)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d lines, want 2", lines)
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	rec := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				id := rec.Begin("stmt", "s")
				rec.Record(Span{Kind: "mul", ComputeSec: 1})
				rec.End(id)
				rec.Spans()
				rec.Summary()
			}
		}()
	}
	wg.Wait()
	sum := rec.Summary()
	if sum.Ops != 16*50 || sum.ComputeSec != 16*50 {
		t.Fatalf("lost spans: ops=%d compute=%g", sum.Ops, sum.ComputeSec)
	}
	// IDs must stay unique under concurrency.
	seen := map[int64]bool{}
	for _, s := range rec.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

// FormatGroupCosts renders a group-cost table (the remac-explain
// per-statement view).
func FormatGroupCosts(costs []GroupCost) string {
	var b []byte
	b = fmt.Appendf(b, "%-24s %6s %8s %12s %12s %12s\n",
		"statement", "execs", "ops", "compute(s)", "transmit(s)", "total(s)")
	for _, g := range costs {
		label := g.Label
		if label == "" {
			label = "(outside statements)"
		}
		b = fmt.Appendf(b, "%-24s %6d %8d %12.3f %12.3f %12.3f\n",
			label, g.Executions, g.Ops, g.ComputeSec, g.TransmitSec, g.TotalSec())
	}
	return string(b)
}
