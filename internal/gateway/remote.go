package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// ErrRetryBudgetExhausted is the root cause inside the Overloaded-class
// (503 + Retry-After) error returned when the server-wide retry budget
// cannot fund another wire retry. A typed rejection instead of a retry
// storm: a recovering fleet must not be hammered by every caller's
// backlog at once.
var ErrRetryBudgetExhausted = errors.New("gateway: wire retry budget exhausted")

// ErrNotTransmittable is the root cause inside the Compile-class error a
// RemoteInstance returns for queries it cannot reconstruct over the wire
// (in-process probes, fault plans, or input bindings with no dataset).
var ErrNotTransmittable = errors.New("gateway: query not transmittable to a remote shard")

// RetryBudget is a token bucket shared by every RemoteInstance behind one
// gateway: each wire retry spends a token and each wire success refills
// a fraction of one (capped at the capacity), so sustained retries are
// bounded to a fraction of successful traffic. When the bucket is empty a
// retry is refused with a typed Overloaded error instead of amplifying
// load into a partition.
type RetryBudget struct {
	mu        sync.Mutex
	b         bucket
	refill    float64
	taken     uint64
	exhausted uint64
}

// NewRetryBudget builds a budget with capacity tokens (starting full) and
// refillPerSuccess tokens restored per successful wire query. capacity <= 0
// defaults to 64; refillPerSuccess < 0 defaults to 0.1.
func NewRetryBudget(capacity, refillPerSuccess float64) *RetryBudget {
	if capacity <= 0 {
		capacity = 64
	}
	if refillPerSuccess < 0 {
		refillPerSuccess = 0.1
	}
	return &RetryBudget{b: newBucket(capacity), refill: refillPerSuccess}
}

// Take spends one retry token; false means the budget is exhausted and
// the retry must not happen.
func (b *RetryBudget) Take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.b.take() {
		b.exhausted++
		return false
	}
	b.taken++
	return true
}

// Success refills the bucket by the per-success increment.
func (b *RetryBudget) Success() {
	b.mu.Lock()
	b.b.add(b.refill)
	b.mu.Unlock()
}

// RetryBudgetStats snapshots the bucket.
type RetryBudgetStats struct {
	Tokens    float64 `json:"tokens"`
	Capacity  float64 `json:"capacity"`
	Taken     uint64  `json:"taken"`
	Exhausted uint64  `json:"exhausted"`
}

// Stats snapshots the budget's tokens and counters.
func (b *RetryBudget) Stats() RetryBudgetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return RetryBudgetStats{Tokens: b.b.tokens, Capacity: b.b.capacity, Taken: b.taken, Exhausted: b.exhausted}
}

// RemoteConfig parameterizes a RemoteInstance.
type RemoteConfig struct {
	// BaseURL is the shard's root endpoint ("http://host:port").
	BaseURL string
	// ShardID labels the shard in stats and lifecycle events; empty
	// derives it from the BaseURL host.
	ShardID string
	// Client is the pooled HTTP client; nil builds one over a cloned
	// default transport. Chaos harnesses inject a NetFault-wrapped
	// transport here.
	Client *http.Client
	// AttemptTimeout bounds one wire attempt. Each attempt's context is
	// carved from the query's once-bound deadline: min(AttemptTimeout,
	// remaining budget), so wire retries can never extend a query past
	// the deadline the gateway bound before the first attempt. Default 10s.
	AttemptTimeout time.Duration
	// Budget, when non-nil, is the gateway-wide retry budget every
	// RemoteInstance shares: a re-send must be funded by it as well as by
	// the request's own allowance.
	Budget *RetryBudget
	// ProbeTimeout bounds health, stats, version and invalidation
	// round-trips. Default 2s.
	ProbeTimeout time.Duration
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.ShardID == "" {
		if u, err := url.Parse(c.BaseURL); err == nil && u.Host != "" {
			c.ShardID = u.Host
		} else {
			c.ShardID = c.BaseURL
		}
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// WireStats reports a RemoteInstance's transport counters.
type WireStats struct {
	// Attempts counts wire attempts (first tries and retries).
	Attempts uint64 `json:"attempts"`
	// Retries counts budget-funded re-attempts after a wire failure.
	Retries uint64 `json:"retries"`
	// Failures counts transport-layer failures (resets, timeouts, torn
	// bodies) — not HTTP error statuses, which are answers.
	Failures uint64 `json:"failures"`
	// Replays counts responses the shard served from its idempotency
	// window: a retry whose original executed and whose reply was lost.
	Replays uint64 `json:"replays"`
	// BudgetExhausted counts retries refused by the shared budget.
	BudgetExhausted uint64 `json:"budget_exhausted"`
	// Budget snapshots the shared bucket (nil when no budget is wired).
	Budget *RetryBudgetStats `json:"budget,omitempty"`
}

// RemoteInstance implements Instance over HTTP against a cmd/remac-serve
// shard: pooled connections, per-attempt timeouts carved from the
// once-bound query deadline, idempotent re-sends debited from the request's
// allowance and the shared budget, and wire errors
// mapped into the resilience taxonomy so lifecycle ejection, failover and
// rejoin fire on wire evidence exactly as they do in process.
type RemoteInstance struct {
	cfg  RemoteConfig
	base string

	// stat accumulates the transport counters in place (count).
	statMu sync.Mutex
	stat   WireStats
}

// count applies one counter update under the stats lock.
func (ri *RemoteInstance) count(update func(ws *WireStats)) {
	ri.statMu.Lock()
	update(&ri.stat)
	ri.statMu.Unlock()
}

// NewRemote builds a remote shard client. The instance is stateless
// beyond its connection pool: respawning one (Config.Respawn) is just
// constructing a fresh client against the same URL.
func NewRemote(cfg RemoteConfig) *RemoteInstance {
	cfg = cfg.withDefaults()
	base := cfg.BaseURL
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &RemoteInstance{cfg: cfg, base: base}
}

var _ Instance = (*RemoteInstance)(nil)

// WireStats snapshots the transport counters.
func (ri *RemoteInstance) WireStats() WireStats {
	ri.statMu.Lock()
	ws := ri.stat
	ri.statMu.Unlock()
	if ri.cfg.Budget != nil {
		s := ri.cfg.Budget.Stats()
		ws.Budget = &s
	}
	return ws
}

// wireError marks a transport-layer failure as retryable at this layer.
type wireError struct{ err error }

func (e *wireError) Error() string { return "gateway: wire failure: " + e.err.Error() }
func (e *wireError) Unwrap() error { return e.err }

// isWireRetryable reports whether a Do attempt failure is a transport
// fault worth a budgeted retry (an HTTP-status error never is).
func isWireRetryable(err error) bool {
	var we *wireError
	return errors.As(err, &we)
}

// wireRequest reconstructs the HTTP request body for a built query. Only
// builder-shaped queries travel: the algorithm (or raw script) plus the
// dataset rebind the same standard inputs on the far side. In-process
// chaos hooks (Probe), fault plans, and custom inputs without a dataset
// have no wire representation and fail with a typed Compile-class error
// rather than silently executing something else remotely.
func wireRequest(q serve.Query) (httpapi.QueryRequest, error) {
	bad := func(what string) (httpapi.QueryRequest, error) {
		return httpapi.QueryRequest{}, &resilience.QueryError{
			Class: resilience.Compile, Stage: "wire",
			Err: fmt.Errorf("%w: %s", ErrNotTransmittable, what),
		}
	}
	if q.Probe != nil {
		return bad("in-process probe hook set")
	}
	if q.Faults.Enabled() {
		return bad("fault-injection plan set")
	}
	if q.Dataset == "" {
		return bad("no dataset to rebind inputs from")
	}
	req := httpapi.QueryRequest{
		Algorithm:           q.Algorithm,
		Dataset:             q.Dataset,
		Iterations:          q.Iterations,
		Strategy:            q.Strategy.Name(),
		MaxIterations:       q.MaxIterations,
		Recovery:            q.Recovery.String(),
		NoPlanCache:         q.NoPlanCache,
		NoIntermediateCache: q.NoIntermediateCache,
	}
	if q.Algorithm == "" {
		req.Script = q.Script
	}
	if q.Recovery == (engine.RecoveryPolicy{}) {
		// The zero policy means "server default" — don't pin "lineage"
		// over a remote shard configured with a different default.
		req.Recovery = ""
	}
	return req, nil
}

// wireRetry is the wire-retry delay schedule: resilience's one capped
// exponential backoff at transport scale (2ms doubling to a 20ms cap),
// jittered per (idempotency key, attempt) so concurrent retriers do not
// synchronize. Constants, not configuration.
var wireRetry = resilience.RetryPolicy{BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}

// wireSends caps how many times one Do puts its request on the wire (the
// first send included), so that a shard that cannot be reached leaves the
// request allowance enough to fail over with.
const wireSends = 3

// Do submits the query over the wire. Only transport failures (resets,
// timeouts, torn or garbled bodies) are re-sent — under the same
// idempotency key, so a response lost after the shard committed replays
// the original result instead of re-executing. Every send takes one unit
// of the request's allowance and grants the shard exactly that unit; a
// re-send must also be funded by the shared budget. An HTTP error status
// parses back into the typed error the shard wrote (Retry-After included)
// and returns immediately: overload, quota and client errors are answers
// for the gateway's walk, not transport noise.
func (ri *RemoteInstance) Do(ctx context.Context, q serve.Query) (*serve.QueryResult, error) {
	req, err := wireRequest(q)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "wire", Err: err}
	}
	allow := resilience.AllowanceFrom(ctx)
	if allow == nil {
		// Called outside a gateway: the per-Do cap is the whole bound.
		allow = resilience.NewAllowance(wireSends)
	}
	var lastErr error
	sends := 0
	for ; sends < wireSends && allow.Take(); sends++ {
		if sends > 0 {
			if ri.cfg.Budget != nil && !ri.cfg.Budget.Take() {
				ri.count(func(ws *WireStats) { ws.BudgetExhausted++ })
				return nil, &resilience.QueryError{
					Class: resilience.Overloaded, Stage: "wire-retry",
					Err:        fmt.Errorf("%w: %w", ErrRetryBudgetExhausted, lastErr),
					RetryAfter: time.Second,
				}
			}
			ri.count(func(ws *WireStats) { ws.Retries++ })
			t := time.NewTimer(wireRetry.Backoff(hashKey(0, q.IdempotencyKey), sends))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, wireCanceled(ctx, lastErr)
			}
		}
		res, err := ri.attempt(ctx, q.IdempotencyKey, payload, sends)
		if err == nil {
			if ri.cfg.Budget != nil {
				ri.cfg.Budget.Success()
			}
			return res, nil
		}
		if !isWireRetryable(err) {
			return nil, err
		}
		ri.count(func(ws *WireStats) { ws.Failures++ })
		lastErr = err
		if ctx.Err() != nil {
			return nil, wireCanceled(ctx, lastErr)
		}
	}
	if sends == 0 {
		return nil, &resilience.QueryError{Class: resilience.Overloaded, Stage: "wire",
			Err: resilience.ErrAllowanceSpent, RetryAfter: time.Second}
	}
	// Out of sends: an Internal-class failure, so the gateway's failover
	// and passive ejection fire on it exactly as they would on an
	// in-process crash.
	return nil, &resilience.QueryError{
		Class: resilience.Internal, Stage: "wire",
		Err: fmt.Errorf("%w (after %d send(s))", lastErr, sends),
	}
}

// wireCanceled renders a context expiry mid-transport as the typed
// Canceled-class error the deadline machinery expects.
func wireCanceled(ctx context.Context, lastErr error) error {
	cause := ctx.Err()
	if lastErr != nil {
		cause = fmt.Errorf("%w (last wire failure: %w)", ctx.Err(), lastErr)
	}
	return &resilience.QueryError{
		Class: resilience.Canceled, Stage: "wire",
		Err: fmt.Errorf("gateway: %w: %w", engine.ErrCanceled, cause),
	}
}

// maxWireBody bounds response bodies read off the wire.
const maxWireBody = 8 << 20

// attempt is one wire round-trip under a deadline carved from ctx. Every
// transport failure comes back as a wireError; Do tells a failed wire from
// an expired deadline.
func (ri *RemoteInstance) attempt(ctx context.Context, key string, payload []byte, attempt int) (*serve.QueryResult, error) {
	ri.count(func(ws *WireStats) { ws.Attempts++ })
	timeout := ri.cfg.AttemptTimeout
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, wireCanceled(ctx, nil)
		}
		if rem < timeout {
			timeout = rem
		}
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, ri.base+"/query", bytes.NewReader(payload))
	if err != nil {
		return nil, &resilience.QueryError{Class: resilience.Internal, Stage: "wire", Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if key != "" {
		hreq.Header.Set(httpapi.IdempotencyKeyHeader, key)
	}
	hreq.Header.Set(httpapi.AttemptHeader, strconv.Itoa(attempt))
	hreq.Header.Set(httpapi.AttemptsLeftHeader, "1") // the unit this send took, and no more
	resp, err := ri.cfg.Client.Do(hreq)
	if err != nil {
		return nil, &wireError{err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBody))
	if err != nil {
		return nil, &wireError{fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, httpapi.ParseError(resp.StatusCode, resp.Header, body)
	}
	var qr httpapi.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, &wireError{fmt.Errorf("garbled response body: %w", err)}
	}
	res := resultFromResponse(qr)
	if res.Replayed {
		ri.count(func(ws *WireStats) { ws.Replays++ })
	}
	return res, nil
}

// resultFromResponse rebuilds a serve.QueryResult from the wire shape: the
// record as sent, and the summaries and the executing shard's bitwise result
// hash in place of the cells, which never travel.
func resultFromResponse(qr httpapi.QueryResponse) *serve.QueryResult {
	res := &serve.QueryResult{Record: qr.Record}
	if len(qr.Values) > 0 {
		res.Summaries = make(map[string]serve.ValueSummary, len(qr.Values))
		for name, vs := range qr.Values {
			res.Summaries[name] = vs
		}
	}
	if qr.ResultHash != "" {
		if h, err := strconv.ParseUint(qr.ResultHash, 16, 64); err == nil {
			res.ResultHash = h
		}
	}
	return res
}

// roundTrip is one bounded request against the shard outside the query
// path: probes, stats, version reads and invalidations.
func (ri *RemoteInstance) roundTrip(method, path string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), ri.cfg.ProbeTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, method, ri.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ri.cfg.Client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxWireBody))
	return resp.StatusCode, body, err
}

// probe reads one health endpoint; any wire failure is an unhealthy
// report — active detection fires on wire evidence.
func (ri *RemoteInstance) probe(path string) serve.Health {
	_, body, err := ri.roundTrip(http.MethodGet, path)
	if err != nil {
		return serve.Health{OK: false, Status: "wire: " + err.Error()}
	}
	var h serve.Health
	if err := json.Unmarshal(body, &h); err != nil {
		return serve.Health{OK: false, Status: "wire: bad probe body"}
	}
	return h
}

// Healthz probes the remote shard's liveness over the wire.
func (ri *RemoteInstance) Healthz() serve.Health { return ri.probe("/healthz") }

// Readyz probes the remote shard's readiness over the wire.
func (ri *RemoteInstance) Readyz() serve.Health { return ri.probe("/readyz") }

// Metrics reads the shard's /stats snapshot; a wire failure returns an
// empty snapshot still labeled with the shard id.
func (ri *RemoteInstance) Metrics() serve.Snapshot {
	status, body, err := ri.roundTrip(http.MethodGet, "/stats")
	if err != nil || status != http.StatusOK {
		return serve.Snapshot{Shard: ri.cfg.ShardID}
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return serve.Snapshot{Shard: ri.cfg.ShardID}
	}
	if snap.Shard == "" {
		snap.Shard = ri.cfg.ShardID
	}
	return snap
}

// InvalidateDataset bumps the dataset version on the remote shard. A wire
// failure drops the bump — exactly like a crashed in-process shard — and
// DatasetVersion's lag report makes the gateway's acknowledged broadcast
// count the shard as lagged until the rejoin catch-up replays it.
func (ri *RemoteInstance) InvalidateDataset(id string) {
	_, _, _ = ri.roundTrip(http.MethodPost, "/invalidate?dataset="+url.QueryEscape(id)) // DatasetVersion is the acknowledgment
}

// DatasetVersion reads the shard's acknowledged version over the wire;
// -1 on any failure, which every catch-up loop treats as "behind and not
// acknowledging" — the broadcast moves on and the rejoin gate retries.
func (ri *RemoteInstance) DatasetVersion(id string) int64 {
	status, body, err := ri.roundTrip(http.MethodGet, "/version?dataset="+url.QueryEscape(id))
	if err != nil || status != http.StatusOK {
		return -1
	}
	var vr httpapi.VersionResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		return -1
	}
	return vr.Version
}

// Shutdown releases the pooled connections. The remote process has its
// own lifecycle — the gateway deliberately cannot stop it.
func (ri *RemoteInstance) Shutdown(ctx context.Context) error {
	ri.cfg.Client.CloseIdleConnections()
	return nil
}
