// Package resilience is the serving layer's fault-handling toolkit: a typed
// query-error taxonomy with errors.Is/As support, one attempt allowance per
// request, a capped-backoff schedule with deterministic jitter, a
// closed/open/half-open circuit breaker, and panic capture with stack
// redaction.
//
// The package mirrors what SystemDS inherits from Spark's driver/executor
// recovery: a single misbehaving query — a panic, a runaway loop, a
// corrupted block lineage could not repair — must degrade into a structured
// error on that query alone, never into a process crash or a wedged
// admission queue. It imports nothing but the standard library and
// internal/fault's mixer, so internal/serve, internal/gateway and
// cmd/remac-serve can all consume it; classification of engine errors into
// classes happens at the serving layer, which knows the sentinels.
//
// Backoff jitter derives from a key and an attempt number, and the breaker
// takes an injectable clock, so the chaos soak harness replays identical
// storms.
package resilience

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"remac/internal/fault"
)

// Class partitions query failures by what the caller should do about them.
type Class int

const (
	// Internal is a server-side defect: a recovered panic or an invariant
	// violation. Not retryable by policy (the bug is deterministic).
	Internal Class = iota
	// Overloaded is an admission rejection: breaker open or queue full.
	// Retryable by the client after the error's RetryAfter hint.
	Overloaded
	// Canceled is a query abandoned by its own context (client gone or
	// deadline passed), whether it was still queued or already running.
	Canceled
	// Compile is a front-end failure: parse or plan-compilation error in
	// the submitted program. A client bug; retrying the same text is futile.
	Compile
	// Execution is a run-time failure inside the engine.
	Execution
	// MaxIterations is a loop that never met its condition before the
	// iteration cap — a divergent program, not a server fault.
	MaxIterations
	// Integrity is a detected data corruption that lineage repair could not
	// clear within its bounded budget — an infrastructure fault, so it
	// counts against the breaker like Internal. Not retryable by policy:
	// an at-rest corruption re-reads the same bad bytes on every attempt.
	Integrity
	// Numeric is a non-finite value (NaN/Inf) caught by the engine's guard
	// — a divergent program like MaxIterations, not a server fault.
	Numeric
	// Quota is a per-tenant admission rejection at the gateway tier: the
	// tenant's token bucket is empty or its concurrent-query cap is reached.
	// Unlike Overloaded (the whole instance is saturated), the server has
	// capacity — this tenant specifically must back off, so HTTP maps it to
	// 429 rather than 503. Retryable after the error's RetryAfter hint.
	Quota
)

// Class sentinels: errors.Is(err, resilience.ErrOverloaded) matches any
// QueryError of that class, regardless of the wrapped cause.
var (
	ErrInternal      = errors.New("resilience: internal error")
	ErrOverloaded    = errors.New("resilience: overloaded")
	ErrCanceled      = errors.New("resilience: canceled")
	ErrCompile       = errors.New("resilience: compile error")
	ErrExecution     = errors.New("resilience: execution error")
	ErrMaxIterations = errors.New("resilience: max iterations exceeded")
	ErrIntegrity     = errors.New("resilience: integrity error")
	ErrNumeric       = errors.New("resilience: numeric error")
	ErrQuota         = errors.New("resilience: tenant quota exceeded")
)

// classRow is everything a class is known by outside this package.
type classRow struct {
	name     string // in error text and JSON bodies
	sentinel error
	status   int // what an HTTP front-end returns
}

// classes is the one table of the taxonomy, indexed by Class: String,
// ClassFromString, Sentinel, HTTPStatus and ClassForStatus all read it. Only
// Internal, unrepaired Integrity and non-transient Execution are 500;
// client-caused failures get distinct 4xx codes and overload gets 503 (429
// for one tenant), so clients can key backoff off the status alone. Mapping a
// status back takes the first row with it, so 500 reads Internal and 422
// MaxIterations, with two statuses no row has: 413 (a body over the cap)
// reads Compile, and any other unknown status reads Internal.
var classes = [...]classRow{
	Internal:      {"internal", ErrInternal, http.StatusInternalServerError},
	Overloaded:    {"overloaded", ErrOverloaded, http.StatusServiceUnavailable}, // + Retry-After
	Canceled:      {"canceled", ErrCanceled, http.StatusGatewayTimeout},
	Compile:       {"compile", ErrCompile, http.StatusBadRequest},
	Execution:     {"execution", ErrExecution, http.StatusInternalServerError},
	MaxIterations: {"max-iterations", ErrMaxIterations, http.StatusUnprocessableEntity}, // valid program, divergent
	Integrity:     {"integrity", ErrIntegrity, http.StatusInternalServerError},
	Numeric:       {"numeric", ErrNumeric, http.StatusUnprocessableEntity},
	Quota:         {"quota", ErrQuota, http.StatusTooManyRequests}, // + Retry-After
}

// row is c's table row; a value outside the taxonomy reads as Internal under
// its own number.
func (c Class) row() classRow {
	if c >= 0 && int(c) < len(classes) {
		return classes[c]
	}
	r := classes[Internal]
	r.name = fmt.Sprintf("Class(%d)", int(c))
	return r
}

// String names the class as it appears in error text and JSON bodies.
func (c Class) String() string { return c.row().name }

// Sentinel returns the class's matchable sentinel error.
func (c Class) Sentinel() error { return c.row().sentinel }

// HTTPStatus maps the class to the status an HTTP front-end should return.
func (c Class) HTTPStatus() int { return c.row().status }

// ClassFromString is the inverse of Class.String: it parses the wire name
// an HTTP front-end wrote into a JSON error body back into the class. ok
// is false for names that are not a taxonomy class (e.g. the "closed"
// drain marker), letting callers fall back to ClassForStatus.
func ClassFromString(s string) (Class, bool) {
	for c, r := range classes {
		if r.name == s {
			return Class(c), true
		}
	}
	return Internal, false
}

// ClassForStatus maps an HTTP status back to a class — the fallback when an
// error body carries no parseable class (the exceptions are beside classes).
func ClassForStatus(status int) Class {
	if status == http.StatusRequestEntityTooLarge {
		return Compile
	}
	for c, r := range classes {
		if r.status == status {
			return Class(c)
		}
	}
	return Internal
}

// QueryError is the structured failure of one served query: the taxonomy
// class, which query and pipeline stage failed, the wrapped cause, and —
// for recovered panics — a redacted stack. It supports errors.Is against
// the class sentinels and errors.As for field access.
type QueryError struct {
	// Class is the taxonomy bucket.
	Class Class
	// QueryID is the server-assigned id of the failed query.
	QueryID uint64
	// Stage is where the failure happened: "admission", "queued",
	// "compile", "execute", "panic".
	Stage string
	// Err is the underlying cause (nil only for recovered panics, whose
	// cause is the panic value rendered into Err by PanicError).
	Err error
	// Stack is the redacted goroutine stack of a recovered panic ("" for
	// ordinary errors). Addresses and pointer arguments are scrubbed; see
	// RedactStack.
	Stack string
	// RetryAfter hints when an Overloaded rejection is worth retrying.
	RetryAfter time.Duration
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("query %d: %s: %s: %v", e.QueryID, e.Stage, e.Class, e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// Is matches the class sentinel, so errors.Is(err, resilience.ErrExecution)
// holds for every execution-class QueryError. Causes wrapped in Err keep
// matching through the normal Unwrap chain.
func (e *QueryError) Is(target error) bool { return target == e.Class.Sentinel() }

// ClassOf extracts the taxonomy class from an error chain. ok reports
// whether a QueryError was found; otherwise the class defaults to Internal.
func ClassOf(err error) (Class, bool) {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe.Class, true
	}
	return Internal, false
}

// IsClass reports whether err carries a QueryError of the given class.
func IsClass(err error, c Class) bool {
	got, ok := ClassOf(err)
	return ok && got == c
}

// Backoff is the delay before retry number attempt (1 is the first retry)
// of the request keyed by id: base doubling to a ceiling, scaled by a jitter
// factor in [0.5, 1.0) drawn from (id, attempt) alone. No RNG state is
// consulted, so concurrent retriers do not synchronize and a chaos run
// replays its schedule.
func Backoff(base, ceiling time.Duration, id uint64, attempt int) time.Duration {
	d := base
	for k := 1; k < attempt && d < ceiling; k++ {
		d *= 2
	}
	d = min(d, ceiling)
	u := fault.Mix64Key(0, id, uint64(attempt))
	frac := 0.5 + float64(0.5*float64(u>>11)/(1<<53))
	return time.Duration(float64(d) * frac)
}
