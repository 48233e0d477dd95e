package gateway

import (
	"sync"
	"time"
)

// EventTransition is the Kind of a shard membership transition event
// (query events leave Kind empty).
const EventTransition = "transition"

// Event is one audit record: a query (who ran what, where it ran, how it
// ended, and what it cost) or a shard membership transition (Kind
// "transition": which shard moved between which lifecycle states, on what
// evidence). Events carry the request id so cross-shard traces correlate
// with server logs and error bodies; a passive ejection carries the
// request id of the query that tripped it.
type Event struct {
	// Seq is a gateway-assigned total order over events (1-based), even
	// across concurrent submitters; the tail and the sink see it in order.
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the event's wall-clock timestamp.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Tenant that issued the query ("anonymous" when unidentified).
	Tenant string `json:"tenant"`
	// RequestID correlates the event with the HTTP request and error body.
	RequestID string `json:"request_id"`
	// CanonicalKey fingerprints the query's canonical program text
	// (formatting-independent), so identical workloads aggregate.
	CanonicalKey string `json:"canonical_key"`
	// Dataset the query addressed.
	Dataset string `json:"dataset,omitempty"`
	// Shard index the query executed on (-1 when it never reached one:
	// quota rejections, total overload).
	Shard int `json:"shard"`
	// Outcome is "ok" for success, else the resilience class string
	// ("quota", "overloaded", "compile", …).
	Outcome string `json:"outcome"`
	// Spilled marks a query served off its home shard.
	Spilled bool `json:"spilled,omitempty"`
	// Failover marks a query re-routed off a failed shard.
	Failover bool `json:"failover,omitempty"`
	// Kind distinguishes membership transitions ("transition") from query
	// events (empty).
	Kind string `json:"kind,omitempty"`
	// From / To are the lifecycle states around a transition.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Reason is the transition trigger ("probe", "passive", "respawn",
	// "rejoin") plus its evidence (probe detail, failure window size).
	Reason string `json:"reason,omitempty"`
	// FLOP is the floating-point work charged to the query's simulated
	// cluster (0 for rejections and failures).
	FLOP float64 `json:"flop"`
	// LatencySec is the gateway-observed end-to-end latency.
	LatencySec float64 `json:"latency_sec"`
}

// recordTransition submits a membership transition to the audit plane so
// operators can reconstruct any outage from GET /audit: the shard, the
// states around the move, the trigger and its evidence, and — for passive
// ejections — the request id of the query that tripped the window.
func (g *Gateway) recordTransition(shard int, from, to ShardState, reason, evidence, requestID string) {
	ev := Event{
		Kind:      EventTransition,
		Shard:     shard,
		Tenant:    "system",
		RequestID: requestID,
		From:      from.String(),
		To:        to.String(),
		Outcome:   to.String(),
		Reason:    reason,
	}
	if evidence != "" {
		ev.Reason = reason + ": " + evidence
	}
	g.audit.submit(ev, g.cfg.Clock())
}

// Sink receives every audit event, one call per event in Seq order, on the
// submitting goroutine and under the auditor's lock: it must return quickly
// and must not call back into the gateway.
type Sink interface {
	Record(Event)
}

// auditor records audit events synchronously: submit appends to the
// in-memory tail served by GET /audit and hands the event to the optional
// sink before it returns.
type auditor struct {
	sink Sink // optional

	mu      sync.Mutex
	seq     uint64  // events recorded, and the last Seq stamped
	tail    []Event // the most recent events, oldest first, at most tailCap
	tailCap int
}

// newAuditor returns an auditor whose tail holds tailCap events.
func newAuditor(tailCap int, sink Sink) *auditor {
	return &auditor{sink: sink, tailCap: tailCap}
}

// submit stamps the event (sequence + time) and records it on the tail and
// the sink, under one lock so both see events in Seq order even across
// concurrent submitters — and a GET /audit right after a query sees it.
func (a *auditor) submit(e Event, now time.Time) {
	e.TimeUnixNano = now.UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seq++
	e.Seq = a.seq
	if len(a.tail) == 2*a.tailCap {
		// Slide the window back to the front of the array every tailCap
		// events, so memory stays at two tails however long the process runs.
		a.tail = a.tail[:copy(a.tail, a.tail[a.tailCap:])]
	}
	a.tail = append(a.tail, e)
	if a.sink != nil {
		a.sink.Record(e)
	}
}

// Tail returns up to n most recent events, oldest first.
func (a *auditor) Tail(n int) []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	keep := min(len(a.tail), a.tailCap)
	if n > 0 && n < keep {
		keep = n
	}
	return append([]Event{}, a.tail[len(a.tail)-keep:]...)
}

// written counts the events recorded.
func (a *auditor) written() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}
