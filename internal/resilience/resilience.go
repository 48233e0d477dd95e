// Package resilience is the serving layer's fault-handling toolkit: a typed
// query-error taxonomy with errors.Is/As support, capped-backoff retry and
// hedged-execution policies with deterministic seeded jitter, a
// closed/open/half-open circuit breaker with queue-depth-aware load
// shedding, and panic capture with stack redaction.
//
// The package mirrors what SystemDS inherits from Spark's driver/executor
// recovery: a single misbehaving query — a panic, a runaway loop, a
// transient failure — must degrade into a structured error on that query
// alone, never into a process crash or a wedged admission queue. It is
// deliberately dependency-free (standard library only) so internal/serve,
// internal/gateway and cmd/remac-serve can all consume it; classification
// of engine errors into classes happens at the serving layer, which knows
// the sentinels.
//
// Everything policy-driven is deterministic: retry jitter derives from a
// seed, a query id and an attempt number, and the breaker takes an
// injectable clock, so the chaos soak harness replays identical storms.
package resilience

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Class partitions query failures by what the caller should do about them.
type Class int

const (
	// Internal is a server-side defect: a recovered panic or an invariant
	// violation. Not retryable by policy (the bug is deterministic).
	Internal Class = iota
	// Overloaded is an admission rejection: breaker open or queue shed.
	// Retryable by the client after the error's RetryAfter hint.
	Overloaded
	// Canceled is a query abandoned by its own context (client gone or
	// deadline passed), whether it was still queued or already running.
	Canceled
	// Compile is a front-end failure: parse or plan-compilation error in
	// the submitted program. A client bug; retrying the same text is futile.
	Compile
	// Execution is a run-time failure inside the engine. Transient
	// execution errors (see MarkTransient) are retried by the server.
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

// String names the class as it appears in error text and JSON bodies.
func (c Class) String() string {
	switch c {
	case Internal:
		return "internal"
	case Overloaded:
		return "overloaded"
	case Canceled:
		return "canceled"
	case Compile:
		return "compile"
	case Execution:
		return "execution"
	case MaxIterations:
		return "max-iterations"
	case Integrity:
		return "integrity"
	case Numeric:
		return "numeric"
	case Quota:
		return "quota"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassFromString is the inverse of Class.String: it parses the wire name
// an HTTP front-end wrote into a JSON error body back into the class. ok
// is false for names that are not a taxonomy class (e.g. the "closed"
// drain marker), letting callers fall back to status-code mapping.
func ClassFromString(s string) (Class, bool) {
	switch s {
	case "internal":
		return Internal, true
	case "overloaded":
		return Overloaded, true
	case "canceled":
		return Canceled, true
	case "compile":
		return Compile, true
	case "execution":
		return Execution, true
	case "max-iterations":
		return MaxIterations, true
	case "integrity":
		return Integrity, true
	case "numeric":
		return Numeric, true
	case "quota":
		return Quota, true
	default:
		return Internal, false
	}
}

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

// Sentinel returns the class's matchable sentinel error.
func (c Class) Sentinel() error {
	switch c {
	case Overloaded:
		return ErrOverloaded
	case Canceled:
		return ErrCanceled
	case Compile:
		return ErrCompile
	case Execution:
		return ErrExecution
	case MaxIterations:
		return ErrMaxIterations
	case Integrity:
		return ErrIntegrity
	case Numeric:
		return ErrNumeric
	case Quota:
		return ErrQuota
	default:
		return ErrInternal
	}
}

// HTTPStatus maps the class to the status an HTTP front-end should return.
// Only Internal and non-transient Execution collapse to 500; client-caused
// failures get distinct 4xx codes and overload gets 503 so clients can key
// backoff off the status alone.
func (c Class) HTTPStatus() int {
	switch c {
	case Quota:
		return http.StatusTooManyRequests // 429 + Retry-After
	case Overloaded:
		return http.StatusServiceUnavailable // 503 + Retry-After
	case Canceled:
		return http.StatusGatewayTimeout // 504
	case Compile:
		return http.StatusBadRequest // 400
	case MaxIterations, Numeric:
		return http.StatusUnprocessableEntity // 422: valid program, divergent
	default:
		// Internal, unrepaired Integrity and non-transient Execution are
		// server-side faults: 500.
		return http.StatusInternalServerError
	}
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
	// Transient marks an execution failure worth retrying server-side.
	Transient bool
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

// transientError marks a failure as transient (retry-worthy).
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// MarkTransient wraps err so IsTransient reports true through any further
// wrapping. Used by fault probes and by any engine path that distinguishes
// recoverable failures.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) is marked
// transient, either via MarkTransient or a QueryError's Transient flag.
func IsTransient(err error) bool {
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	var qe *QueryError
	return errors.As(err, &qe) && qe.Transient
}
