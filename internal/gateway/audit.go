package gateway

import (
	"sync"
	"sync/atomic"
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
	// Seq is a gateway-assigned total order over events (1-based). The
	// asynchronous writer preserves submission order per goroutine; Seq
	// orders events globally even across concurrent submitters.
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
	if g.audit == nil {
		return
	}
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

// Sink consumes audit events off the auditor's queue, one call per event,
// from a single goroutine. Implementations may block (a file or network
// sink); the queue absorbs bursts and Submit never blocks the serving
// path.
type Sink interface {
	Record(Event)
}

// auditor is the queued, non-blocking audit writer: Submit enqueues (or
// drops, counting) and returns immediately; a single background goroutine
// drains the queue into the in-memory tail and the optional sink. Drain
// flushes everything accepted before it and stops the writer.
type auditor struct {
	ch      chan Event
	sink    Sink // optional
	seq     atomic.Uint64
	dropped atomic.Uint64
	written atomic.Uint64

	mu      sync.Mutex
	tail    []Event // the most recent events, oldest first, at most tailCap
	tailCap int

	done chan struct{}
}

// newAuditor starts the writer goroutine. depth bounds the queue, tailCap
// bounds the in-memory tail served by GET /audit.
func newAuditor(depth, tailCap int, sink Sink) *auditor {
	a := &auditor{
		ch:      make(chan Event, depth),
		sink:    sink,
		tailCap: tailCap,
		done:    make(chan struct{}),
	}
	go a.run()
	return a
}

func (a *auditor) run() {
	defer close(a.done)
	for e := range a.ch {
		if a.sink != nil {
			a.sink.Record(e)
		}
		a.written.Add(1)
	}
}

// submit stamps the event (sequence + time), records it on the in-memory
// tail synchronously — so a GET /audit right after a query always sees it
// — and enqueues it for the sink without ever blocking the serving path: a
// full queue drops the sink write and counts the drop, which the stats
// surface so an undersized queue is visible rather than silent.
func (a *auditor) submit(e Event, now time.Time) {
	e.TimeUnixNano = now.UnixNano()
	// Seq is stamped under the tail mutex so the tail is ordered by Seq
	// even across concurrent submitters.
	a.mu.Lock()
	e.Seq = a.seq.Add(1)
	if len(a.tail) == 2*a.tailCap {
		// Slide the window back to the front of the array every tailCap
		// events, so memory stays at two tails however long the process runs.
		a.tail = a.tail[:copy(a.tail, a.tail[a.tailCap:])]
	}
	a.tail = append(a.tail, e)
	a.mu.Unlock()
	select {
	case a.ch <- e:
	default:
		a.dropped.Add(1)
	}
}

// Tail returns up to n most recent written events, oldest first.
func (a *auditor) Tail(n int) []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	keep := min(len(a.tail), a.tailCap)
	if n > 0 && n < keep {
		keep = n
	}
	return append([]Event{}, a.tail[len(a.tail)-keep:]...)
}

// Drain closes the queue and waits until the writer has flushed every
// accepted event into the tail and the sink. Submit must not be called
// after Drain begins.
func (a *auditor) Drain() {
	close(a.ch)
	<-a.done
}

// counters reports accepted-and-written vs dropped event totals.
func (a *auditor) counters() (written, dropped uint64) {
	return a.written.Load(), a.dropped.Load()
}
