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
// is told: the keys it missed and published, and every value handed to it.
// Made by newFakeSource it keeps what is published and serves it to later
// Acquires; the zero value keeps nothing and never hits. onMiss, when set,
// runs on every miss.
type fakeSource struct {
	mu     sync.Mutex
	stored map[string]Input
	given  []*matrix.Matrix
	misses []string
	pubs   []string
	hits   int
	onMiss func()
}

func newFakeSource() *fakeSource {
	return &fakeSource{stored: map[string]Input{}}
}

func (f *fakeSource) Acquire(key string) (Input, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if v, ok := f.stored[key]; ok {
		f.hits++
		return v, true
	}
	f.misses = append(f.misses, key)
	if f.onMiss != nil {
		f.onMiss()
	}
	return Input{}, false
}

func (f *fakeSource) Publish(key string, v Input) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.given, f.pubs = append(f.given, v.Data), append(f.pubs, key)
	if f.stored != nil {
		f.stored[key] = v
	}
}

// TestSharedProducerAdoptionBitwiseAndCheaper drives the executor's LSE
// source end to end: a first run misses and publishes its loop-constant
// producers, and an adopting run takes them uncharged — producing
// bitwise-identical results while being charged strictly less FLOP, and
// publishing nothing.
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
		t.Fatal("the plan exposed no shared producers")
	}
	if sh.hits != 0 {
		t.Fatalf("first run: %d hits on an empty source, want 0", sh.hits)
	}
	if lead.Stats.FLOP != base.Stats.FLOP {
		t.Errorf("missing run charged %.6g FLOP, the plain run %.6g: a miss must cost what no source costs",
			lead.Stats.FLOP, base.Stats.FLOP)
	}
	published := len(sh.pubs)

	adopt, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: sh})
	if err != nil {
		t.Fatal(err)
	}
	if sh.hits != len(sh.misses) {
		t.Fatalf("replay of the same plan adopted %d of %d published producers", sh.hits, len(sh.misses))
	}
	if len(sh.pubs) != published {
		t.Errorf("adopting run published %d values, want none", len(sh.pubs)-published)
	}
	for name, v := range base.Env {
		if !lead.Env[name].Data().Equal(v.Data()) {
			t.Errorf("%s: missing run differs from the plain run", name)
		}
		if !adopt.Env[name].Data().Equal(v.Data()) {
			t.Errorf("%s: adopting run differs from the plain run", name)
		}
	}
	if adopt.Stats.FLOP >= lead.Stats.FLOP {
		t.Errorf("adopting run charged %.6g FLOP, not strictly below the missing run's %.6g",
			adopt.Stats.FLOP, lead.Stats.FLOP)
	}
}

// TestLSESourceSettlesEveryMissOnce: a run that misses publishes each
// missed key exactly once; a run that hits everything publishes nothing; a
// run cancelled while an LSE production is under way publishes nothing.
func TestLSESourceSettlesEveryMissOnce(t *testing.T) {
	c := compileFor(t, algorithms.DFP, "cri1", opt.Adaptive)
	ins := inputsFor(t, algorithms.DFP, "cri1")
	src := newFakeSource()
	if _, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: src}); err != nil {
		t.Fatal(err)
	}
	if len(src.misses) == 0 {
		t.Fatal("the plan exposed no shared producers")
	}
	missed := map[string]int{}
	for _, k := range src.misses {
		missed[k]++
	}
	for _, k := range src.pubs {
		missed[k]--
	}
	for k, n := range missed {
		if n != 0 {
			t.Errorf("%q: missed and published counts differ by %d, want each miss published once", k, n)
		}
	}
	published := len(src.pubs)
	if _, err := RunWithOptions(context.Background(), c, ins, nil, RunOptions{LSE: src}); err != nil {
		t.Fatal(err)
	}
	if src.hits == 0 || len(src.pubs) != published {
		t.Fatalf("hitting run: %d hits, %d published; want hits and nothing published",
			src.hits, len(src.pubs)-published)
	}

	// Cancelled on its first miss, a run stops at the producer's first
	// evaluation, before the slot fills.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failing := &fakeSource{onMiss: cancel}
	if _, err := RunWithOptions(ctx, c, ins, nil, RunOptions{LSE: failing}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("run cancelled in a production returned %v, want ErrCanceled", err)
	}
	if len(failing.misses) == 0 || len(failing.pubs) != 0 {
		t.Fatalf("cancelled run: %d misses, %d published; want a miss and nothing published",
			len(failing.misses), len(failing.pubs))
	}
}
