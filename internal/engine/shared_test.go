package engine

import (
	"context"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/opt"
)

// fakeShared is a single-goroutine SharedProducers stub: the first run
// leads every key and publishes; replays of the same plan adopt the
// published values.
type fakeShared struct {
	published   map[string]Input
	flops       map[string]float64
	leads, hits int
	fails       int
}

func (f *fakeShared) Acquire(_ context.Context, key string) (Input, SharedRole, error) {
	if v, ok := f.published[key]; ok {
		f.hits++
		return v, SharedHit, nil
	}
	f.leads++
	return Input{}, SharedLead, nil
}

func (f *fakeShared) Publish(key string, v Input, flop float64) {
	f.published[key] = v
	f.flops[key] = flop
}

func (f *fakeShared) Fail(string, error) { f.fails++ }

func newFakeShared() *fakeShared {
	return &fakeShared{published: map[string]Input{}, flops: map[string]float64{}}
}

// TestSharedProducerAdoptionBitwiseAndCheaper drives the executor's
// shared-producer hook end to end: a leading run publishes its
// loop-constant producers with the FLOP each one cost, and an adopting run
// reuses them — producing bitwise-identical results while being charged
// strictly less FLOP.
func TestSharedProducerAdoptionBitwiseAndCheaper(t *testing.T) {
	c := compileFor(t, algorithms.DFP, "cri1", opt.Adaptive)
	ins := inputsFor(t, algorithms.DFP, "cri1")
	base, err := runPlain(c, ins)
	if err != nil {
		t.Fatal(err)
	}

	sh := newFakeShared()
	lead, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{Shared: sh})
	if err != nil {
		t.Fatal(err)
	}
	if sh.leads == 0 {
		t.Fatal("the plan exposed no shared producers to lead")
	}
	if sh.hits != 0 || sh.fails != 0 {
		t.Fatalf("first run: hits=%d fails=%d, want 0/0", sh.hits, sh.fails)
	}
	if len(sh.published) != sh.leads {
		t.Fatalf("published %d of %d led producers, want every lead settled", len(sh.published), sh.leads)
	}
	maxFlop := 0.0
	for _, fl := range sh.flops {
		if fl > maxFlop {
			maxFlop = fl
		}
	}
	if maxFlop <= 0 {
		t.Fatal("no published producer carried a positive FLOP cost")
	}

	adopt, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{Shared: sh})
	if err != nil {
		t.Fatal(err)
	}
	if sh.hits == 0 {
		t.Fatal("replay of the same plan adopted nothing")
	}
	for name, v := range base.Env {
		if !lead.Env[name].Data().Equal(v.Data()) {
			t.Errorf("%s: leading run differs from the plain run", name)
		}
		if !adopt.Env[name].Data().Equal(v.Data()) {
			t.Errorf("%s: adopting run differs from the plain run", name)
		}
	}
	if adopt.Stats.FLOP >= lead.Stats.FLOP {
		t.Errorf("adopting run charged %.6g FLOP, not strictly below the leading run's %.6g",
			adopt.Stats.FLOP, lead.Stats.FLOP)
	}
}
