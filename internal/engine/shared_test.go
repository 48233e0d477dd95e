package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"remac/internal/algorithms"
	"remac/internal/matrix"
	"remac/internal/opt"
)

// fakeSource is an LSESource safe for concurrent runs that records what it
// is told: the keys it missed, published and failed, and every value handed
// to it. Made by newFakeSource it keeps what is published and serves it to
// later Acquires; the zero value keeps nothing and never hits. onMiss, when
// set, runs on every miss.
type fakeSource struct {
	mu     sync.Mutex
	stored map[string]Input
	flops  map[string]float64
	given  []*matrix.Matrix
	misses []string
	pubs   []string
	fails  []string
	hits   int
	onMiss func()
}

func newFakeSource() *fakeSource {
	return &fakeSource{stored: map[string]Input{}, flops: map[string]float64{}}
}

func (f *fakeSource) Acquire(_ context.Context, key string) (Input, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.stored[key]; ok {
		f.hits++
		return v, true, nil
	}
	f.misses = append(f.misses, key)
	if f.onMiss != nil {
		f.onMiss()
	}
	return Input{}, false, nil
}

func (f *fakeSource) Publish(key string, v Input, flop float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.given, f.pubs = append(f.given, v.Data), append(f.pubs, key)
	if f.stored != nil {
		f.stored[key], f.flops[key] = v, flop
	}
}

func (f *fakeSource) Fail(key string, _ error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fails = append(f.fails, key)
}

// TestSharedProducerAdoptionBitwiseAndCheaper drives the executor's LSE
// source end to end: a first run misses and publishes its loop-constant
// producers with the FLOP each one cost, and an adopting run reuses them —
// producing bitwise-identical results while being charged strictly less
// FLOP.
func TestSharedProducerAdoptionBitwiseAndCheaper(t *testing.T) {
	c := compileFor(t, algorithms.DFP, "cri1", opt.Adaptive)
	ins := inputsFor(t, algorithms.DFP, "cri1")
	base, err := runPlain(c, ins)
	if err != nil {
		t.Fatal(err)
	}

	sh := newFakeSource()
	lead, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: sh})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.misses) == 0 {
		t.Fatal("the plan exposed no shared producers to lead")
	}
	if sh.hits != 0 || len(sh.fails) != 0 {
		t.Fatalf("first run: hits=%d fails=%d, want 0/0", sh.hits, len(sh.fails))
	}
	if len(sh.stored) != len(sh.misses) {
		t.Fatalf("published %d of %d led producers, want every lead settled", len(sh.stored), len(sh.misses))
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

	adopt, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: sh})
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

// TestLSESourceSettlesEveryMissOnce: a run that misses publishes each missed
// key once and fails none; a run that hits everything publishes and fails
// nothing; a run that fails while an LSE production is under way fails each
// pending key exactly once and publishes none of them.
func TestLSESourceSettlesEveryMissOnce(t *testing.T) {
	c := compileFor(t, algorithms.DFP, "cri1", opt.Adaptive)
	ins := inputsFor(t, algorithms.DFP, "cri1")
	src := newFakeSource()
	if _, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: src}); err != nil {
		t.Fatal(err)
	}
	if len(src.misses) == 0 || len(src.given) != len(src.misses) || len(src.stored) != len(src.misses) || len(src.fails) != 0 {
		t.Fatalf("missing run: %d misses, %d published under %d keys, %d failed; want every miss published once",
			len(src.misses), len(src.given), len(src.stored), len(src.fails))
	}
	published := len(src.given)
	if _, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: src}); err != nil {
		t.Fatal(err)
	}
	if src.hits == 0 || len(src.given) != published || len(src.fails) != 0 {
		t.Fatalf("hitting run: %d hits, %d published, %d failed; want hits and nothing settled",
			src.hits, len(src.given)-published, len(src.fails))
	}

	// Cancelled on its first miss, a run stops at the producer's first
	// evaluation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failing := &fakeSource{onMiss: cancel}
	if _, err := RunWithOptions(ctx, c, ins, nil, RunOptions{LSE: failing}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run cancelled in a production returned %v, want ErrCanceled", err)
	}
	if len(failing.misses) == 0 || len(failing.fails) == 0 || len(failing.pubs) != 0 {
		t.Fatalf("cancelled run: %d misses, %d failed, %d published; want the pending miss failed",
			len(failing.misses), len(failing.fails), len(failing.pubs))
	}
	failed := map[string]int{}
	for _, k := range failing.fails {
		failed[k]++
	}
	for _, k := range failing.misses {
		if failed[k] != 1 {
			t.Errorf("pending %q failed %d times, want once", k, failed[k])
		}
		delete(failed, k)
	}
	for k := range failed {
		t.Errorf("failed %q, which the run never missed", k)
	}
}
