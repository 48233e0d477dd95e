package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"remac/internal/algorithms"
	"remac/internal/engine"
	"remac/internal/fault"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// ChaosSeed selects the storm schedule of the Chaos experiment
// (remac-bench -chaos-seed). Everything — query kinds, per-query fault
// sub-streams, retry jitter — derives from it, so a run reproduces exactly.
var ChaosSeed int64 = 17

// chaosStorm is the replayed query count; chaosClients issue it concurrently.
const (
	chaosStorm   = 64
	chaosClients = 8
)

// chaosKind partitions the storm: ~60% healthy fault-injected queries and
// ~10% each of four failure modes.
type chaosKind int

const (
	chaosHealthy chaosKind = iota
	chaosFlaky             // transient failure on the first attempt, retried
	chaosPanic             // panicking probe: structured Internal error
	chaosTimeout           // microsecond deadline: typed cancellation
	chaosDiverge           // iteration-cap bomb: typed MaxIterations error
)

func (k chaosKind) String() string {
	return [...]string{"healthy", "flaky", "panic", "timeout", "divergent"}[k]
}

func chaosKindOf(seed int64, i int) chaosKind {
	switch h := uint64(fault.DeriveSeed(seed, i)) % 10; {
	case h < 6:
		return chaosHealthy
	case h < 7:
		return chaosFlaky
	case h < 8:
		return chaosPanic
	case h < 9:
		return chaosTimeout
	default:
		return chaosDiverge
	}
}

// chaosWorkload are the healthy query shapes the storm draws from.
var chaosWorkload = []serveCase{
	{algorithms.GD, "cri1", 2},
	{algorithms.DFP, "cri1", 3},
}

// Chaos soaks the resilient serving path: a seeded storm of concurrent
// queries — healthy ones carrying derived fault sub-streams, plus flaky,
// panicking, deadline-expired and divergent ones — against a server with
// retry, hedging and the circuit breaker enabled. Rows report the outcome
// mix per kind; the experiment fails if any success differs bitwise from
// its fault-free serial reference or any failure carries the wrong class.
func Chaos() (*Table, error) {
	t := &Table{
		ID:      "Chaos",
		Title:   fmt.Sprintf("Chaos soak: %d-query storm, %d clients (seed %d)", chaosStorm, chaosClients, ChaosSeed),
		Columns: []string{"issued", "ok", "typed", "shed"},
	}

	// Fault-free serial reference hashes, one per workload shape.
	refSrv := serve.New(serve.Config{
		Workers: 1, NoBreaker: true,
		Retry: resilience.RetryPolicy{MaxAttempts: -1},
	})
	refHash := make([]uint64, len(chaosWorkload))
	for wi, w := range chaosWorkload {
		q, err := serveQuery(w)
		if err != nil {
			return nil, err
		}
		res, err := refSrv.Do(context.Background(), q)
		if err != nil {
			return nil, fmt.Errorf("chaos reference %s/%d: %w", w.alg, w.iters, err)
		}
		refHash[wi] = res.ResultHash
	}
	if err := refSrv.Shutdown(context.Background()); err != nil {
		return nil, err
	}

	rootFaults := fault.NewPlan(fault.Config{
		Seed:                  ChaosSeed,
		WorkerFailuresPerHour: 120,
		TransmitErrorsPerHour: 240,
		StragglersPerHour:     120,
		Workers:               8,
	})

	s := serve.New(serve.Config{
		Workers:    4,
		QueueDepth: 16,
		Retry:      resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: ChaosSeed},
		Hedge:      resilience.HedgePolicy{Enabled: true, MinDelay: 5 * time.Millisecond, MaxOutstanding: 4},
		Breaker: resilience.BreakerConfig{
			Window: 64, MinSamples: 16, FailureThreshold: 0.5, Cooldown: 100 * time.Millisecond,
		},
	})
	defer s.Shutdown(context.Background())

	type cell struct{ issued, ok, typed, shed int }
	outcomes := make([]struct {
		kind chaosKind
		res  *serve.QueryResult
		err  error
	}, chaosStorm)

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				kind := chaosKindOf(ChaosSeed, i)
				w := chaosWorkload[uint64(fault.DeriveSeed(^ChaosSeed, i))%uint64(len(chaosWorkload))]
				q, err := serveQuery(w)
				if err != nil {
					outcomes[i].kind, outcomes[i].err = kind, err
					continue
				}
				q.Faults = rootFaults.Derive(i)
				ctx := context.Background()
				switch kind {
				case chaosFlaky:
					q.Probe = func(attempt int) error {
						if attempt == 0 {
							return resilience.MarkTransient(errors.New("chaos: transient fault"))
						}
						return nil
					}
				case chaosPanic:
					q.Probe = func(int) error { panic("chaos: panic probe") }
				case chaosTimeout:
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
					defer cancel()
				case chaosDiverge:
					q.MaxIterations = 1
				}
				res, err := s.Do(ctx, q)
				outcomes[i].kind, outcomes[i].res, outcomes[i].err = kind, res, err
			}
		}()
	}
	for i := 0; i < chaosStorm; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	cells := map[chaosKind]*cell{}
	for k := chaosHealthy; k <= chaosDiverge; k++ {
		cells[k] = &cell{}
	}
	for i, o := range outcomes {
		c := cells[o.kind]
		c.issued++
		if o.err != nil && errors.Is(o.err, resilience.ErrOverloaded) {
			c.shed++
			continue
		}
		switch o.kind {
		case chaosHealthy, chaosFlaky:
			if o.err != nil {
				return nil, fmt.Errorf("chaos: query %d (%s) failed: %w", i, o.kind, o.err)
			}
			c.ok++
			wi := uint64(fault.DeriveSeed(^ChaosSeed, i)) % uint64(len(chaosWorkload))
			if o.res.ResultHash != refHash[wi] {
				return nil, fmt.Errorf("chaos: query %d (%s) result differs bitwise from fault-free reference", i, o.kind)
			}
		case chaosPanic:
			if !resilience.IsClass(o.err, resilience.Internal) {
				return nil, fmt.Errorf("chaos: panic query %d returned %v, want Internal class", i, o.err)
			}
			c.typed++
		case chaosTimeout:
			if o.err == nil {
				c.ok++ // a warm plan cache can beat a microsecond deadline
				continue
			}
			if !errors.Is(o.err, engine.ErrCanceled) {
				return nil, fmt.Errorf("chaos: timeout query %d returned %v, want canceled class", i, o.err)
			}
			c.typed++
		case chaosDiverge:
			if !errors.Is(o.err, resilience.ErrMaxIterations) {
				return nil, fmt.Errorf("chaos: divergent query %d returned %v, want max-iterations class", i, o.err)
			}
			c.typed++
		}
	}

	issued, served := 0, 0
	for k := chaosHealthy; k <= chaosDiverge; k++ {
		c := cells[k]
		issued += c.issued
		served += c.ok + c.typed
		t.Rows = append(t.Rows, Row{Label: k.String(), Values: map[string]float64{
			"issued": float64(c.issued),
			"ok":     float64(c.ok),
			"typed":  float64(c.typed),
			"shed":   float64(c.shed),
		}})
	}

	snap := s.Metrics()
	t.Notes = append(t.Notes,
		fmt.Sprintf("availability %.1f%%: %d of %d queries served (success or typed error; the rest shed by admission control)",
			100*float64(served)/float64(issued), served, issued),
		"every success verified bitwise against its fault-free serial reference (FNV-64a over value bits)",
		fmt.Sprintf("resilience counters: %d retries, %d hedges (%d won), %d panics recovered, %d worker respawns",
			snap.Retries, snap.Hedges, snap.HedgesWon, snap.PanicsRecovered, snap.WorkerRespawns),
		fmt.Sprintf("breaker: state %s, opened %d, half-opened %d, closed %d, shed %d",
			snap.BreakerState, snap.Breaker.Opened, snap.Breaker.HalfOpened, snap.Breaker.Closed, snap.Breaker.Shed),
	)
	return t, nil
}
