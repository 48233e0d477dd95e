// Chaos soak harness for the resilient serving path. It lives in package
// resilience_test so it can drive internal/serve end to end (serve imports
// resilience, so an internal test here would cycle).
//
// The storm is fully deterministic: query kinds and fault sub-streams derive
// from ChaosSeed, so a failure reproduces bit-for-bit.
// Run it under -race (CI does) — the assertions are as much about what the
// race detector stays silent on as about the explicit checks.
package resilience_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/httpapi"
	"remac/internal/integrity"
	"remac/internal/matrix"
	"remac/internal/resilience"
	"remac/internal/serve"
)

const chaosSeed int64 = 0x5EED_CA05

// queryKind partitions the storm by behavior.
type queryKind int

const (
	kindHealthy   queryKind = iota // fault-injected but well-formed: must succeed bitwise-correct
	kindPanic                      // probe panics: structured Internal error
	kindTimeout                    // microsecond deadline: canceled, queued or running
	kindDivergent                  // MaxIterations=1 bomb: typed MaxIterations error
	kindCorrupt                    // silent corruption + ABFT: bitwise-repaired or typed Integrity error
	kindNaN                        // overflowing loop + per-op guard: typed Numeric error
	kindCoded                      // straggler-heavy + coded recovery: bitwise-correct success
)

// kindOf deterministically assigns a kind to a storm index: ~54% healthy,
// ~8% each of the six chaos modes.
func kindOf(i int) queryKind {
	switch h := uint64(fault.DeriveSeed(chaosSeed, i)) % 13; {
	case h < 7:
		return kindHealthy
	case h < 8:
		return kindPanic
	case h < 9:
		return kindTimeout
	case h < 10:
		return kindDivergent
	case h < 11:
		return kindCorrupt
	case h < 12:
		return kindNaN
	default:
		return kindCoded
	}
}

// variant picks one of the four healthy workload shapes for an index.
type variant struct {
	alg   algorithms.Name
	iters int
}

func variantOf(i int) variant {
	h := uint64(fault.DeriveSeed(^chaosSeed, i))
	v := variant{alg: algorithms.GD, iters: 2 + int((h>>1)%2)}
	if h&1 == 1 {
		v.alg = algorithms.DFP
	}
	return v
}

// chaosQuery builds the serve query for a variant over cri1, as the HTTP
// front-ends do.
func chaosQuery(t testing.TB, v variant) serve.Query {
	t.Helper()
	q, err := httpapi.NewQueryBuilder(engine.RecoveryPolicy{}).Build(
		httpapi.QueryRequest{Algorithm: string(v.alg), Dataset: "cri1", Iterations: v.iters})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// nanQuery builds a numerically divergent query: x0 is nonzero, so repeated
// scaling by 1e200 overflows to Inf within two iterations.
func nanQuery(t testing.TB) serve.Query {
	t.Helper()
	const src = "x = read(\"x0\")\ni = 0\nwhile (i < 6) {\n x = x * 1e200\n i = i + 1\n}"
	ds := data.MustLoad("cri1")
	q := serve.NewQuery(src, map[string]engine.Input{
		"x0": {Data: ds.InitialX(), VRows: ds.VCols, VCols: 1},
	})
	q.Dataset = "cri1-nan"
	q.Iterations = 6
	return q
}

func bitwiseEqualValues(a, b map[string]*matrix.Matrix) error {
	if len(a) != len(b) {
		return fmt.Errorf("variable sets differ: %d vs %d", len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			return fmt.Errorf("variable %s missing", name)
		}
		if av.Rows() != bv.Rows() || av.Cols() != bv.Cols() {
			return fmt.Errorf("variable %s shape differs", name)
		}
		for i := 0; i < av.Rows(); i++ {
			for j := 0; j < av.Cols(); j++ {
				if math.Float64bits(av.At(i, j)) != math.Float64bits(bv.At(i, j)) {
					return fmt.Errorf("variable %s differs bitwise at (%d,%d)", name, i, j)
				}
			}
		}
	}
	return nil
}

// TestChaosSoak is the acceptance harness: a seeded storm of concurrent
// queries — healthy ones carrying derived fault sub-streams, plus
// panicking, canceled, divergent, corrupted, non-finite and coded ones —
// against a server with the circuit breaker enabled. It asserts the process
// survives, every Do returns (shedding, never deadlock), successes are
// bitwise identical to fault-free serial references, failures carry the
// right taxonomy class, the server still serves after the storm, and
// Shutdown drains without leaking goroutines.
func TestChaosSoak(t *testing.T) {
	storm := 80
	if testing.Short() {
		storm = 32
	}
	const clients = 8

	goroutinesBefore := runtime.NumGoroutine()

	// Fault-free serial references, one per healthy variant, computed on a
	// plain single-worker server (none of its queries fails, so its breaker
	// never trips).
	ref := serve.New(serve.Config{Workers: 1})
	refs := map[variant]map[string]*matrix.Matrix{}
	for _, alg := range []algorithms.Name{algorithms.GD, algorithms.DFP} {
		for _, iters := range []int{2, 3} {
			v := variant{alg: alg, iters: iters}
			res, err := ref.Do(context.Background(), chaosQuery(t, v))
			if err != nil {
				t.Fatalf("reference %v/%d: %v", alg, iters, err)
			}
			refs[v] = res.Values
		}
	}
	if err := ref.Shutdown(context.Background()); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}

	// The root fault plan every healthy query derives its sub-stream from.
	rootFaults := fault.NewPlan(fault.Config{
		Seed:                  chaosSeed,
		WorkerFailuresPerHour: 120,
		TransmitErrorsPerHour: 240,
		StragglersPerHour:     120,
		Workers:               8,
	})
	// A separate root for the corruption clients: silent bit flips at a rate
	// that lands multiple events per query, verified end to end by ABFT.
	corruptFaults := fault.NewPlan(fault.Config{
		Seed:               chaosSeed ^ 0xC0DE,
		CorruptionsPerHour: 720,
		Workers:            8,
	})
	// A straggler-heavy root for the coded clients: k-of-n recovery masks
	// stragglers by decoding their blocks from parity, so this is the
	// schedule that exercises the decode path hardest.
	stragglerFaults := fault.NewPlan(fault.Config{
		Seed:                  chaosSeed ^ 0x0DED,
		WorkerFailuresPerHour: 120,
		StragglersPerHour:     720,
		Workers:               8,
	})

	s := serve.New(serve.Config{
		Workers:    4,
		QueueDepth: 16,
		Breaker: resilience.BreakerConfig{
			Window: 64, MinSamples: 16, FailureThreshold: 0.5, Cooldown: 100 * time.Millisecond,
		},
	})

	type outcome struct {
		idx  int
		kind queryKind
		res  *serve.QueryResult
		err  error
	}
	outcomes := make([]outcome, storm)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				kind := kindOf(i)
				v := variantOf(i)
				q := chaosQuery(t, v)
				q.Faults = rootFaults.Derive(i)
				ctx := context.Background()
				switch kind {
				case kindPanic:
					q.Probe = func() error { panic("chaos: panic probe") }
				case kindTimeout:
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				case kindDivergent:
					q.MaxIterations = 1
				case kindCorrupt:
					q.Faults = corruptFaults.Derive(i)
					q.Verify = integrity.VerifyABFT
				case kindNaN:
					q = nanQuery(t)
					q.NaNGuard = integrity.GuardPerOp
				case kindCoded:
					q.Faults = stragglerFaults.Derive(i)
					q.Recovery = engine.RecoveryPolicy{Kind: engine.RecoverCoded}
				}
				res, err := s.Do(ctx, q)
				outcomes[i] = outcome{idx: i, kind: kind, res: res, err: err}
			}
		}()
	}
	for i := 0; i < storm; i++ {
		idxCh <- i
	}
	close(idxCh)

	// Shedding, never deadlock: the whole storm must settle promptly.
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		wg.Wait()
	}()
	select {
	case <-settled:
	case <-time.After(4 * time.Minute):
		t.Fatal("storm did not settle: a Do call is stuck")
	}

	var ok, shed, canceled, internal, divergent, repaired, unrepaired, numeric, coded, decoded int
	for _, o := range outcomes {
		// Any kind may be shed by admission control; that is an availability
		// cost, never a correctness one.
		if o.err != nil && errors.Is(o.err, resilience.ErrOverloaded) {
			shed++
			continue
		}
		switch o.kind {
		case kindHealthy:
			if o.err != nil {
				t.Errorf("query %d (%v): %v", o.idx, o.kind, o.err)
				continue
			}
			ok++
			if err := bitwiseEqualValues(o.res.Values, refs[variantOf(o.idx)]); err != nil {
				t.Errorf("query %d: fault-injected result diverged from serial reference: %v", o.idx, err)
			}
		case kindPanic:
			var qe *resilience.QueryError
			if !errors.As(o.err, &qe) || qe.Class != resilience.Internal {
				t.Errorf("query %d: panic probe returned %v, want Internal-class QueryError", o.idx, o.err)
				continue
			}
			internal++
			if qe.Stack == "" {
				t.Errorf("query %d: panic error carried no stack", o.idx)
			}
		case kindTimeout:
			// A microsecond deadline occasionally races a warm plan-cache hit;
			// success is legal, anything else must be typed Canceled.
			if o.err == nil {
				ok++
				continue
			}
			if !errors.Is(o.err, resilience.ErrCanceled) || !errors.Is(o.err, engine.ErrCanceled) {
				t.Errorf("query %d: timeout query returned %v, want canceled class", o.idx, o.err)
				continue
			}
			canceled++
		case kindDivergent:
			if !errors.Is(o.err, resilience.ErrMaxIterations) || !errors.Is(o.err, engine.ErrMaxIterations) {
				t.Errorf("query %d: divergent query returned %v, want max-iterations class", o.idx, o.err)
				continue
			}
			divergent++
		case kindCorrupt:
			// The integrity contract: a corrupted query either repairs to the
			// bitwise-identical fault-free result or fails with a typed
			// Integrity error — never a silently wrong success.
			if o.err != nil {
				if !errors.Is(o.err, resilience.ErrIntegrity) || !errors.Is(o.err, integrity.ErrCorruption) {
					t.Errorf("query %d: corrupted query returned %v, want integrity class", o.idx, o.err)
					continue
				}
				unrepaired++
				continue
			}
			ok++
			repaired++
			if err := bitwiseEqualValues(o.res.Values, refs[variantOf(o.idx)]); err != nil {
				t.Errorf("query %d: corrupted query succeeded with a wrong result: %v", o.idx, err)
			}
		case kindNaN:
			if o.err == nil {
				t.Errorf("query %d: NaN-divergent query returned silent success", o.idx)
				continue
			}
			if !errors.Is(o.err, resilience.ErrNumeric) || !errors.Is(o.err, integrity.ErrNonFinite) {
				t.Errorf("query %d: NaN query returned %v, want numeric class", o.idx, o.err)
				continue
			}
			numeric++
		case kindCoded:
			// The coded contract: straggler-heavy queries succeed bitwise
			// identical to the serial reference, decodes or not — a decode
			// is charged, and no cell changes.
			if o.err != nil {
				t.Errorf("query %d (coded): %v", o.idx, o.err)
				continue
			}
			ok++
			coded++
			if o.res.EncodeFLOP == 0 {
				t.Errorf("query %d: coded query charged no parity encoding", o.idx)
			}
			if o.res.CodedRecoveries > 0 {
				decoded++
			}
			if err := bitwiseEqualValues(o.res.Values, refs[variantOf(o.idx)]); err != nil {
				t.Errorf("query %d: coded query diverged from serial reference: %v", o.idx, err)
			}
		}
	}
	if ok == 0 {
		t.Fatal("no query in the storm succeeded")
	}
	if internal == 0 && !testing.Short() {
		t.Error("no panic probe surfaced an Internal error (storm mixture broken?)")
	}
	t.Logf("storm: %d ok, %d shed, %d canceled, %d internal, %d divergent, %d repaired, %d unrepaired, %d numeric, %d coded (%d with decodes) of %d",
		ok, shed, canceled, internal, divergent, repaired, unrepaired, numeric, coded, decoded, storm)

	// The server must still serve after the storm — panic probes and an
	// open-then-recovered breaker may not wedge it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := variant{alg: algorithms.GD, iters: 2}
		res, err := s.Do(context.Background(), chaosQuery(t, v))
		if err == nil {
			if berr := bitwiseEqualValues(res.Values, refs[v]); berr != nil {
				t.Fatalf("post-storm query diverged: %v", berr)
			}
			break
		}
		// The breaker may still be open or half-open saturated right after
		// the storm; it must recover within its cooldown.
		if !errors.Is(err, resilience.ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("post-storm query failed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	snap := s.Metrics()
	if snap.PanicsRecovered == 0 && internal > 0 {
		t.Error("panics recovered counter is zero despite Internal outcomes")
	}
	if snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Errorf("storm drained but in-flight %d / queued %d", snap.InFlight, snap.QueueDepth)
	}

	// Clean drain, no goroutine leaks.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= goroutinesBefore {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosStormDeterministicMixture pins the storm composition: the kind
// and variant assignments are pure functions of the seed, so a red chaos
// run reproduces exactly.
func TestChaosStormDeterministicMixture(t *testing.T) {
	counts := map[queryKind]int{}
	for i := 0; i < 1000; i++ {
		if kindOf(i) != kindOf(i) || variantOf(i) != variantOf(i) {
			t.Fatalf("index %d: kind/variant not deterministic", i)
		}
		counts[kindOf(i)]++
	}
	if h := counts[kindHealthy]; h < 400 || h > 600 {
		t.Errorf("healthy fraction %d/1000, want ~540", h)
	}
	for _, k := range []queryKind{kindPanic, kindTimeout, kindDivergent, kindCorrupt, kindNaN, kindCoded} {
		if c := counts[k]; c < 40 || c > 140 {
			t.Errorf("kind %d fraction %d/1000, want ~77", k, c)
		}
	}
}
