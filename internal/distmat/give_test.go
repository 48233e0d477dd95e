package distmat

import (
	"reflect"
	"testing"

	"remac/internal/matrix"
)

// TestRepeatGivenOperatorChargesAsItsKernel: an operator given a value (a
// repeat) charges and records what it charges and records when it runs its
// kernel, and returns a value over the given one's cells; the next operator
// is given nothing, and a run a corruption escaped in gives nothing at all.
func TestRepeatGivenOperatorChargesAsItsKernel(t *testing.T) {
	const n = 24
	ops := map[string]func(d, o *DistMatrix) *DistMatrix{
		"mul":        func(d, o *DistMatrix) *DistMatrix { return d.Mul(o) },
		"ewise":      func(d, o *DistMatrix) *DistMatrix { return d.ElemMul(o) },
		"scale":      func(d, _ *DistMatrix) *DistMatrix { return d.Scale(3) },
		"add-scalar": func(d, _ *DistMatrix) *DistMatrix { return d.AddScalar(3) },
		"transpose":  func(d, _ *DistMatrix) *DistMatrix { return d.Transpose() },
		"sum":        func(d, _ *DistMatrix) *DistMatrix { return New(d.ctx, matrix.Scalar(d.Sum()), 1, 1) },
	}
	for kind, op := range ops {
		run := func(give bool) (*Context, *DistMatrix, *DistMatrix) {
			c := tracedCtx()
			o := newUpdateOperands(c, 7, n)
			first := op(o.h, o.h).Retain()
			if give {
				c.Give(first)
			}
			return c, first, op(o.h, o.h)
		}
		c, first, repeat := run(true)
		ref, _, want := run(false)
		if c.give != nil {
			t.Fatalf("%s: the next operator is given what this one was", kind)
		}
		if !reflect.DeepEqual(c.Cluster.Stats(), ref.Cluster.Stats()) {
			t.Fatalf("%s: charged %+v given, %+v computed", kind, c.Cluster.Stats(), ref.Cluster.Stats())
		}
		spans, wantSpans := c.Recorder.Spans(), ref.Recorder.Spans()
		for i := range spans {
			spans[i].WallNS, wantSpans[i].WallNS = 0, 0
		}
		if !reflect.DeepEqual(spans, wantSpans) {
			t.Fatalf("%s: recorded %+v given, %+v computed", kind, spans, wantSpans)
		}
		requireCells(t, kind, repeat.Data(), cellsOf(want.Data()))
		if kind != "sum" && (repeat.Data() != first.Data() || repeat.src != first) {
			t.Fatalf("%s: the repeat does not read the given value's cells", kind)
		}
		c.escaped = true
		if c.Give(first); c.give != nil {
			t.Fatalf("%s: a run a corruption escaped in gives", kind)
		}
	}
}

// TestRepeatGivenValueLeavesItsCellsToTheSource: a value over given cells is
// no temporary, so no consumer writes over them; it holds the source for all
// of its holders, an expression that reads it among them, so the cells go to
// the free list when the last holder of either lets go.
func TestRepeatGivenValueLeavesItsCellsToTheSource(t *testing.T) {
	c := ctx()
	const n = 32
	o := newUpdateOperands(c, 11, n)
	given := func(x *DistMatrix) (first, repeat *DistMatrix, cells []float64) {
		first = x.Scale(2).Retain() // the repeat slot holds it
		c.Give(first)
		repeat = x.Scale(2)
		return first, repeat, cellsOf(first.Data())
	}

	first, repeat, cells := given(o.h)
	repeat.Scale(3)
	requireCells(t, "the source, its repeat consumed", first.Data(), cells)
	repeat.Pin() // bound to a name
	if buf := first.Retire(); buf != nil {
		t.Fatal("the source was retired while a repeat's holder held it")
	}
	poisonIdle(c)
	requireCells(t, "the repeat, its slot cleared", repeat.Data(), cells)
	if buf := repeat.Retire(); buf == nil || idleHolds(c, buf) != 1 {
		t.Fatal("the last holder let go, and the cells are not free once")
	}

	first, repeat, _ = given(o.u)
	buf := first.Data().Buffer()
	outer := repeat.Mul(o.vT) // deferred, reading the repeat's cells
	if !outer.Deferred() || first.holds != 2 || repeat.holds != 1 {
		t.Fatalf("deferred %v, %d holds on the source, %d on the repeat: want a deferred product holding the repeat, and the repeat the source",
			outer.Deferred(), first.holds, repeat.holds)
	}
	if first.Retire() != nil {
		t.Fatal("a source a borrower holds was retired")
	}
	poisonIdle(c)
	requireCells(t, "the product over a repeat", outer.Data(), cellsOf(o.um.Scale(2).Mul(o.vm)))
	if idleHolds(c, buf) != 1 || first.holds != 0 {
		t.Fatalf("the evaluation let go: the cells are free %d×, the source keeps %d holds (want 1, 0)", idleHolds(c, buf), first.holds)
	}
}
