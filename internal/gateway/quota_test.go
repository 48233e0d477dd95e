package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/resilience"
	"remac/internal/serve"
)

// fakeClock is a manually advanced clock for quota tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func mustAdmit(t *testing.T, qs *quotas, tenant string) func() {
	t.Helper()
	rel, err := qs.admit(tenant)
	if err != nil {
		t.Fatalf("admit(%s): %v", tenant, err)
	}
	return rel
}

// TestQuotaRateLimit: the token bucket enforces QPS+burst, rejects with a
// typed Quota-class error carrying a positive Retry-After, and refills
// with the clock.
func TestQuotaRateLimit(t *testing.T) {
	clock := newFakeClock()
	qs := newQuotas(map[string]TenantQuota{"t": {QPS: 2, Burst: 2}}, TenantQuota{}, clock.now)

	mustAdmit(t, qs, "t")()
	mustAdmit(t, qs, "t")()
	_, err := qs.admit("t")
	if err == nil {
		t.Fatal("third admit within the burst succeeded")
	}
	if !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("rejection class = %v, want Quota", err)
	}
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, resilience.ErrQuota) {
		t.Fatalf("rejection does not match ErrQuotaExceeded/resilience.ErrQuota: %v", err)
	}
	var qe *resilience.QueryError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 {
		t.Fatalf("rejection carries no Retry-After hint: %+v", qe)
	}

	// Half a second at 2 QPS refills one token.
	clock.advance(500 * time.Millisecond)
	mustAdmit(t, qs, "t")()
	if _, err := qs.admit("t"); err == nil {
		t.Fatal("bucket admitted beyond its refill")
	}
}

// TestQuotaConcurrencyLimit: MaxConcurrent caps in-flight queries; slots
// free on release, and double-release is harmless.
func TestQuotaConcurrencyLimit(t *testing.T) {
	clock := newFakeClock()
	qs := newQuotas(nil, TenantQuota{MaxConcurrent: 2}, clock.now)

	rel1 := mustAdmit(t, qs, "t")
	rel2 := mustAdmit(t, qs, "t")
	if _, err := qs.admit("t"); !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("over-concurrency admit: err = %v, want Quota class", err)
	}
	rel1()
	rel1() // double release must not free a second slot
	rel3 := mustAdmit(t, qs, "t")
	if _, err := qs.admit("t"); err == nil {
		t.Fatal("double-release freed an extra slot")
	}
	rel2()
	rel3()
}

// TestQuotaDefaultUnlimited: the zero quota never rejects, and tenants
// are isolated — one tenant's exhaustion does not touch another's bucket.
func TestQuotaDefaultUnlimitedAndIsolated(t *testing.T) {
	clock := newFakeClock()
	qs := newQuotas(map[string]TenantQuota{"limited": {QPS: 1, Burst: 1}}, TenantQuota{}, clock.now)
	for i := 0; i < 100; i++ {
		mustAdmit(t, qs, "free")()
	}
	mustAdmit(t, qs, "limited")()
	if _, err := qs.admit("limited"); err == nil {
		t.Fatal("limited tenant's bucket did not empty")
	}
	// The limited tenant's exhaustion leaves "free" untouched.
	mustAdmit(t, qs, "free")()
}

// TestBucketBothRefillModes drives the one token bucket the way its two
// owners do: refilled by elapsed time × rate (a tenant quota) and by a
// fraction of a token per success (the wire retry budget).
func TestBucketBothRefillModes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity float64
		steps    string  // t: take (granted), T: take (refused), +: add refill
		refill   float64 // what one + adds: seconds×QPS, or RefillPerSuccess
		tokens   float64 // left at the end
	}{
		{"quota 2/s burst 2, half-second gaps", 2, "ttT+t+tT", 0.5 * 2, 0},
		{"quota refill never exceeds the burst", 3, "t++++tttT", 10 * 1, 0},
		{"retry budget, 0.5 back per success", 2, "ttT+T+tT", 0.5, 0},
		{"retry budget, zero refill stays empty", 1, "tT+++T", 0, 0},
		{"retry budget caps at capacity", 2, "+++tt", 0.7, 0},
		{"fractions accumulate", 1, "tT+T+T+T+t", 0.25, 0},
	} {
		b := newBucket(tc.capacity)
		for i, step := range tc.steps {
			switch step {
			case '+':
				b.add(tc.refill)
			case 't', 'T':
				if got := b.take(); got != (step == 't') {
					t.Fatalf("%s: step %d (%c of %q) take = %v with %.2f tokens", tc.name, i, step, tc.steps, got, b.tokens)
				}
			}
			if b.tokens < 0 || b.tokens > tc.capacity {
				t.Fatalf("%s: step %d left %.2f tokens outside [0, %.0f]", tc.name, i, b.tokens, tc.capacity)
			}
		}
		if b.tokens != tc.tokens {
			t.Errorf("%s: %.2f tokens left, want %.2f", tc.name, b.tokens, tc.tokens)
		}
	}
	// The same sequence through the exported owner: counters on top.
	rb := NewRetryBudget(2, 0.5)
	for _, want := range []bool{true, true, false} {
		if rb.Take() != want {
			t.Fatalf("RetryBudget.Take sequence diverged from the bucket's")
		}
	}
	rb.Success()
	rb.Success()
	if st := rb.Stats(); !rb.Take() || st.Taken != 2 || st.Exhausted != 1 || st.Tokens != 1 || st.Capacity != 2 {
		t.Fatalf("RetryBudget after two successes: %+v", st)
	}
}

// TestQuotaBurstDefault: an unset Burst defaults to ceil(QPS), never 0.
func TestQuotaBurstDefault(t *testing.T) {
	q := TenantQuota{QPS: 2.5}.withDefaults()
	if q.Burst != 3 {
		t.Fatalf("Burst default = %d, want 3", q.Burst)
	}
	q = TenantQuota{QPS: 0.25}.withDefaults()
	if q.Burst != 1 {
		t.Fatalf("Burst default for fractional QPS = %d, want 1", q.Burst)
	}
}

// holdShard blocks queries against the "hold" dataset until released, so a
// test can keep one tenant's query in flight for as long as it likes.
type holdShard struct {
	*fakeShard
	entered chan struct{}
	release chan struct{}
}

func (h *holdShard) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	if q.Dataset == "hold" {
		h.entered <- struct{}{}
		<-h.release
	}
	return h.fakeShard.Do(ctx, q)
}

// TestHostileTenantCardinalityIsBounded: the tenant name is a client-
// supplied header, so 100k distinct names must not grow the gateway. Both
// per-tenant maps stay at tenantCap, a known tenant that stays active
// through the flood keeps exact counters, and a sleeper whose only query is
// in flight the whole time — pinned by it, though never touched — keeps
// exact concurrency-slot accounting.
func TestHostileTenantCardinalityIsBounded(t *testing.T) {
	// The known tenant needs a slot per flood worker.
	const workers, slots = 4, 4
	sh := &holdShard{fakeShard: newFakeShard("s0"), entered: make(chan struct{}), release: make(chan struct{})}
	g := NewWithInstances(Config{
		DefaultQuota: TenantQuota{MaxConcurrent: slots}, // every tenant gets a bucket
	}, []Instance{sh})
	defer g.Shutdown(context.Background())
	do := func(tenant, dataset string) error {
		_, err := g.Do(context.Background(), Request{Tenant: tenant, Query: serve.Query{Dataset: dataset}})
		return err
	}

	held := make(chan error, 1)
	go func() { held <- do("sleeper", "hold") }()
	<-sh.entered // the sleeper now holds one of its slots

	// Every worker interleaves the known tenant into its own share of the
	// flood, so however the scheduler runs them no more than
	// workers*knownEvery < tenantCap new names separate two of its queries.
	const hostile, knownEvery = 100_000, 250
	var wg sync.WaitGroup
	var knownDone atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < hostile; i += workers {
				if err := do(fmt.Sprintf("bot-%d", i), "d"); err != nil {
					t.Errorf("hostile tenant %d: %v", i, err)
					return
				}
				if (i/workers)%knownEvery == 0 {
					if err := do("known", "d"); err != nil {
						t.Errorf("known tenant mid-flood: %v", err)
						return
					}
					knownDone.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	g.tenantMu.Lock()
	tenants := g.tenants.Len()
	g.tenantMu.Unlock()
	g.quotas.mu.Lock()
	buckets := g.quotas.st.Len()
	g.quotas.mu.Unlock()
	if tenants > tenantCap || buckets > tenantCap {
		t.Fatalf("after %d distinct tenants: %d stats entries, %d quota buckets; cap %d", hostile, tenants, buckets, tenantCap)
	}
	if got := len(g.Stats().Tenants); got > tenantCap {
		t.Fatalf("/stats lists %d tenants, cap %d", got, tenantCap)
	}

	// Slot accounting survived the flood: one slot is still held, so exactly
	// slots-1 more admit and the next is refused.
	var releases []func()
	for k := 1; k < slots; k++ {
		rel, err := g.quotas.admit("sleeper")
		if err != nil {
			t.Fatalf("slot %d of %d refused with one query in flight: %v", k+1, slots, err)
		}
		releases = append(releases, rel)
	}
	if _, err := g.quotas.admit("sleeper"); !resilience.IsClass(err, resilience.Quota) {
		t.Fatalf("query %d admitted (err %v): the in-flight bucket was dropped and lost its count", slots+1, err)
	}
	for _, rel := range releases {
		rel()
	}

	close(sh.release)
	if err := <-held; err != nil {
		t.Fatalf("held query: %v", err)
	}
	want := uint64(knownDone.Load())
	if ts := g.Stats().Tenants["known"]; ts.Queries != want || ts.Completed != want || ts.Failed != 0 || ts.FLOP != 100*float64(want) {
		t.Fatalf("known tenant stats %+v, want %d queries all completed", ts, want)
	}
}
