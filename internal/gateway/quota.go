package gateway

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"remac/internal/lru"
	"remac/internal/resilience"
)

// ErrQuotaExceeded is the cause wrapped by Quota-class rejections; match
// it with errors.Is, or match the class sentinel resilience.ErrQuota.
var ErrQuotaExceeded = errors.New("gateway: tenant quota exceeded")

// TenantQuota is one tenant's admission budget, layered above each
// shard's circuit breaker: the breaker protects an instance from its
// aggregate load, the quota protects every other tenant from one noisy
// one. The zero value is unlimited.
type TenantQuota struct {
	// QPS is the sustained token-bucket refill rate (queries per second);
	// 0 means no rate limit.
	QPS float64
	// Burst is the bucket capacity; defaults to max(1, ceil(QPS)) when a
	// rate limit is set.
	Burst int
	// MaxConcurrent caps the tenant's in-flight queries across all shards;
	// 0 means no concurrency limit.
	MaxConcurrent int
}

// limited reports whether the quota constrains anything.
func (q TenantQuota) limited() bool { return q.QPS > 0 || q.MaxConcurrent > 0 }

func (q TenantQuota) withDefaults() TenantQuota {
	if q.QPS > 0 && q.Burst <= 0 {
		q.Burst = max(1, int(math.Ceil(q.QPS)))
	}
	return q
}

// bucket is the tier's one token bucket: take spends a whole token, add
// refills up to the capacity. What calls add is the owner's policy — elapsed
// time × QPS for a tenant quota, a fraction of a token per wire success for
// the retry budget — and so is the locking.
type bucket struct{ tokens, capacity float64 }

// newBucket returns a full bucket.
func newBucket(capacity float64) bucket { return bucket{tokens: capacity, capacity: capacity} }

func (b *bucket) take() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (b *bucket) add(n float64) { b.tokens = math.Min(b.capacity, b.tokens+n) }

// tenantBucket is one tenant's live admission state: its rate bucket,
// refilled by the clock, and its in-flight count.
type tenantBucket struct {
	bucket
	last     time.Time
	inflight int
}

// quotas is the per-tenant admission layer: a token bucket (QPS + burst)
// and a concurrent-query counter per tenant. Rejections are typed
// Quota-class QueryErrors carrying a Retry-After hint, which the HTTP
// front-ends map to 429.
type quotas struct {
	mu  sync.Mutex
	cfg map[string]TenantQuota
	def TenantQuota
	// st holds the live buckets, LRU-bounded at tenantCap. A bucket with
	// queries in flight is pinned, so a release can never hit a dropped
	// bucket (and the tenant's concurrency count can never restart low).
	st  *lru.Cache[string, *tenantBucket]
	now func() time.Time
}

func newQuotas(perTenant map[string]TenantQuota, def TenantQuota, now func() time.Time) *quotas {
	cfg := make(map[string]TenantQuota, len(perTenant))
	for t, q := range perTenant {
		cfg[t] = q.withDefaults()
	}
	st := lru.New[string, *tenantBucket](tenantCap)
	st.Pin(func(b *tenantBucket) bool { return b.inflight > 0 })
	return &quotas{cfg: cfg, def: def.withDefaults(), st: st, now: now}
}

// quotaFor resolves the quota applying to a tenant: its own entry if
// configured, else the default.
func (qs *quotas) quotaFor(tenant string) TenantQuota {
	if q, ok := qs.cfg[tenant]; ok {
		return q
	}
	return qs.def
}

// admit charges one query against tenant's quota. On success it returns a
// release func that must be called exactly once when the query settles
// (it frees the concurrency slot; the consumed token is gone for good).
// On rejection it returns a Quota-class *resilience.QueryError whose
// RetryAfter hints when the bucket will next hold a token.
func (qs *quotas) admit(tenant string) (release func(), err error) {
	q := qs.quotaFor(tenant)
	if !q.limited() {
		return func() {}, nil
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	b, ok := qs.st.Get(tenant)
	now := qs.now()
	if !ok {
		b = &tenantBucket{bucket: newBucket(float64(q.Burst)), last: now}
	}
	if elapsed := now.Sub(b.last).Seconds(); q.QPS > 0 && elapsed > 0 {
		b.add(float64(elapsed * q.QPS))
		b.last = now
	}
	if q.MaxConcurrent > 0 && b.inflight >= q.MaxConcurrent {
		// The slot frees when some in-flight query settles; there is no
		// schedule to read a precise hint off, so hint one typical query.
		return nil, quotaErr(tenant, "concurrent-query quota reached", 100*time.Millisecond)
	}
	if q.QPS > 0 && !b.take() {
		wait := time.Duration((1 - b.tokens) / q.QPS * float64(time.Second))
		return nil, quotaErr(tenant, "rate quota exhausted", max(wait, time.Millisecond))
	}
	b.inflight++
	if !ok {
		// Stored only once admitted (a fresh bucket always is): it enters
		// the cache already pinned by its own in-flight query.
		qs.st.Put(tenant, b, 1)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			qs.mu.Lock()
			b.inflight--
			qs.mu.Unlock()
		})
	}, nil
}

// quotaErr builds the typed rejection: Quota class, admission stage, a
// cause wrapping ErrQuotaExceeded, and the Retry-After hint.
func quotaErr(tenant, reason string, retryAfter time.Duration) error {
	return &resilience.QueryError{
		Class:      resilience.Quota,
		Stage:      "quota",
		Err:        fmt.Errorf("tenant %q: %s: %w", tenant, reason, ErrQuotaExceeded),
		RetryAfter: retryAfter,
	}
}
