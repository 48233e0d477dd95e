package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remac/internal/resilience"
	"remac/internal/serve"
)

// answer is what a scripted shard does with a query.
type answer int

const (
	answerOK answer = iota
	answerOverloaded
	answerInternal
	answerQuota
	answerHang // blocks until the request's deadline
)

var errScriptedCrash = errors.New("scripted shard crash")

// scriptedShard answers every query the same scripted way, after spending
// the request's allowance the way a real shard would: it wants execs engine
// executions, takes a unit before each, and stops at the first refusal.
type scriptedShard struct {
	*fakeShard
	answer     answer
	execs      int
	retryAfter time.Duration

	mu       sync.Mutex
	tries    int
	executed int
}

func (s *scriptedShard) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	allow := resilience.AllowanceFrom(ctx)
	ran := 0
	for ran < s.execs && allow.Take() {
		ran++
	}
	s.mu.Lock()
	s.tries++
	s.executed += ran
	s.mu.Unlock()
	if ran == 0 && s.execs > 0 {
		return nil, &resilience.QueryError{Class: resilience.Overloaded, Stage: "admission",
			Err: resilience.ErrAllowanceSpent, RetryAfter: s.retryAfter}
	}
	switch s.answer {
	case answerOverloaded:
		return nil, &resilience.QueryError{Class: resilience.Overloaded, Stage: "admission",
			Err: serve.ErrOverloaded, RetryAfter: s.retryAfter}
	case answerInternal:
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "shard", Err: errScriptedCrash}
	case answerQuota:
		return nil, &resilience.QueryError{Class: resilience.Quota, Stage: "admission",
			Err: errors.New("tenant over quota"), RetryAfter: s.retryAfter}
	case answerHang:
		<-ctx.Done()
		return nil, &resilience.QueryError{Class: resilience.Canceled, Stage: "shard", Err: ctx.Err()}
	}
	return &serve.QueryResult{Record: serve.Record{FLOP: 100}}, nil
}

// outcomeCounters sums the Stats counters a query outcome can land in.
func outcomeCounters(st Stats) uint64 {
	return st.Routed + st.QuotaRejected + st.OverloadRejected + st.FailoverExhausted + st.DeadlineExceeded
}

// TestAllowanceBoundsTheWalk is the executable form of the tier's one
// bound, over seeded fleets of scripted shards and every allowance 1…8:
// shard tries plus the executions the shards report never exceed the
// allowance; a 429 stays terminal; a fleet-wide overload still carries the
// soonest Retry-After; every failure has the class and sentinel it had
// before there was an allowance (running out of it is not a failure kind of
// its own); and whatever the exit, the request leaves exactly one audit
// event and one tenant-stats update, and moves at most one Stats counter.
func TestAllowanceBoundsTheWalk(t *testing.T) {
	for allowance := 1; allowance <= 8; allowance++ {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed*8 + int64(allowance)))
			fleet := make([]*scriptedShard, 1+rng.Intn(4))
			insts := make([]Instance, len(fleet))
			hangs := false
			for i := range fleet {
				a := answer(rng.Intn(4))
				if rng.Intn(12) == 0 {
					a, hangs = answerHang, true
				}
				fleet[i] = &scriptedShard{
					fakeShard:  newFakeShard(fmt.Sprintf("shard-%d", i)),
					answer:     a,
					execs:      rng.Intn(4),
					retryAfter: time.Duration(1+rng.Intn(9)) * time.Second,
				}
				insts[i] = fleet[i]
			}
			sink := &recordingSink{}
			g := NewWithInstances(Config{Seed: uint64(seed), AuditSink: sink, PassiveFailures: -1, EjectAfter: -1}, insts)
			q := gatewayQuery("cri1")
			q.Attempts = allowance
			if hangs {
				q.Timeout = 20 * time.Millisecond // what reaching the hung shard costs
			}
			order := g.routableOrder(q)
			res, err := g.Do(context.Background(), Request{Tenant: "t", Query: q})
			st := g.Stats()
			if serr := g.Shutdown(context.Background()); serr != nil {
				t.Fatal(serr)
			}
			name := fmt.Sprintf("allowance %d seed %d", allowance, seed)

			// The bound, and the shape of the walk: a prefix of the preference
			// order, one try per shard.
			tries, executed, last := 0, 0, -1
			var answers []answer
			soonest := time.Duration(0)
			for k, shard := range order {
				s := fleet[shard]
				if s.tries > 1 || (s.tries == 1 && k != tries) {
					t.Fatalf("%s: shard %d tried %d time(s) out of preference order %v", name, shard, s.tries, order)
				}
				if s.tries == 0 {
					continue
				}
				tries, executed, last = tries+1, executed+s.executed, shard
				a := s.answer
				if s.executed == 0 && s.execs > 0 {
					a = answerOverloaded // handed an empty allowance
				}
				answers = append(answers, a)
				if a == answerOverloaded && (soonest == 0 || s.retryAfter < soonest) {
					soonest = s.retryAfter
				}
			}
			if tries+executed > allowance {
				t.Fatalf("%s: %d shard tries + %d executions exceed the allowance", name, tries, executed)
			}
			if tries == 0 {
				t.Fatalf("%s: no shard was tried", name)
			}
			final := answers[len(answers)-1]
			failedOver, spilled := false, false
			for _, a := range answers[:len(answers)-1] {
				failedOver = failedOver || a == answerInternal
				spilled = spilled || a == answerOverloaded
				if a != answerInternal && a != answerOverloaded {
					t.Fatalf("%s: the walk moved on after answer %v (answers %v)", name, a, answers)
				}
			}

			// Same classes and sentinels as before the allowance existed.
			switch {
			case final == answerOK:
				if err != nil || res.Shard != last || res.Spilled != spilled || res.Failover != failedOver {
					t.Fatalf("%s: answers %v gave result %+v, err %v", name, answers, res, err)
				}
			case final == answerHang || errors.Is(err, ErrDeadlineExhausted):
				// (On a stalled machine the 20 ms can also run out before the
				// walk reaches the hung shard; the typing is the same.)
				if !hangs || !errors.Is(err, ErrDeadlineExhausted) || !resilience.IsClass(err, resilience.Canceled) {
					t.Fatalf("%s: answers %v gave %v, want Canceled/ErrDeadlineExhausted only with a hung shard", name, answers, err)
				}
			case final == answerQuota:
				if !resilience.IsClass(err, resilience.Quota) || retryAfterOf(err) != fleet[last].retryAfter {
					t.Fatalf("%s: shard 429 gave %v, want it passed through", name, err)
				}
			case final == answerInternal && failedOver:
				if !errors.Is(err, ErrFailoverExhausted) || !resilience.IsClass(err, resilience.Internal) || !errors.Is(err, errScriptedCrash) {
					t.Fatalf("%s: answers %v gave %v, want Internal/ErrFailoverExhausted", name, answers, err)
				}
			case final == answerInternal:
				if !errors.Is(err, errScriptedCrash) || !resilience.IsClass(err, resilience.Internal) || errors.Is(err, ErrFailoverExhausted) {
					t.Fatalf("%s: a single failed try gave %v, want the shard's own error", name, err)
				}
			case final == answerOverloaded:
				if !resilience.IsClass(err, resilience.Overloaded) || retryAfterOf(err) != soonest {
					t.Fatalf("%s: answers %v gave %v (Retry-After %v), want Overloaded with the soonest hint %v",
						name, answers, err, retryAfterOf(err), soonest)
				}
			}

			// One recorder.
			events := sink.all()
			if len(events) != 1 || events[0].Shard != last || events[0].Outcome != outcomeClass(err) ||
				events[0].Spilled != spilled || events[0].Failover != failedOver {
				t.Fatalf("%s: audit events %+v, want one for shard %d with outcome %q", name, events, last, outcomeClass(err))
			}
			if ts := st.Tenants["t"]; ts.Queries != 1 || ts.Completed+ts.Failed+ts.QuotaRejected != 1 {
				t.Fatalf("%s: tenant stats %+v, want exactly one query settled", name, ts)
			}
			// A shard's own answer (its 429, a crash nothing failed over from)
			// moves no gateway counter; every other exit moves exactly one.
			wantCounted := uint64(1)
			if !errors.Is(err, ErrDeadlineExhausted) && (final == answerQuota || (final == answerInternal && !failedOver)) {
				wantCounted = 0
			}
			if got := outcomeCounters(st); got != wantCounted {
				t.Fatalf("%s: answers %v moved %d outcome counters, want %d (%+v)", name, answers, got, wantCounted, st)
			}
		}
	}
}

// TestAllowanceRecordsRejectionsOnce: the exits that never reach a shard —
// the gateway's own 429 and a fleet with nothing routable — go through the
// same single recorder.
func TestAllowanceRecordsRejectionsOnce(t *testing.T) {
	insts, fakes := fakeFleet(2)
	sink := &recordingSink{}
	g := NewWithInstances(Config{
		AuditSink: sink, EjectAfter: 1, PassiveFailures: -1,
		Quotas: map[string]TenantQuota{"capped": {QPS: 0.001, Burst: 1}},
	}, insts)
	do := func(tenant string) error {
		_, err := g.Do(context.Background(), Request{Tenant: tenant, Query: gatewayQuery("cri1")})
		return err
	}
	if err := do("capped"); err != nil {
		t.Fatal(err)
	}
	if err := do("capped"); !errors.Is(err, ErrQuotaExceeded) || !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("over-quota request: %v", err)
	}
	for _, f := range fakes {
		f.setDown(true)
	}
	g.ProbeNow()
	if err := do("other"); !errors.Is(err, ErrNoShards) || !resilience.IsClass(err, resilience.Overloaded) {
		t.Fatalf("request to an ejected fleet: %v", err)
	}
	st := g.Stats()
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st.Routed != 1 || st.QuotaRejected != 1 || st.OverloadRejected != 1 || outcomeCounters(st) != 3 {
		t.Fatalf("stats %+v, want one routed, one quota-rejected, one overload-rejected", st)
	}
	var queries []Event
	for _, e := range sink.all() {
		if e.Kind == "" {
			queries = append(queries, e)
		}
	}
	if len(queries) != 3 || queries[1].Outcome != "quota" || queries[1].Shard != -1 ||
		queries[2].Outcome != "overloaded" || queries[2].Shard != -1 {
		t.Fatalf("query audit events %+v, want ok, quota (no shard), overloaded (no shard)", queries)
	}
	if c, o := st.Tenants["capped"], st.Tenants["other"]; c.Queries != 2 || c.QuotaRejected != 1 || o.Queries != 1 || o.Failed != 1 {
		t.Fatalf("tenant stats capped %+v other %+v", c, o)
	}
}
