// Package httpapi is the HTTP plumbing shared by cmd/remac-serve and
// cmd/remac-gateway: the JSON query request/response shapes, dataset-bound
// query construction, the resilience-class → HTTP status error writer, and
// X-Request-ID propagation. Keeping it in one place means the two
// front-ends cannot drift apart in how they parse workloads or render
// failures.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"remac/internal/algorithms"
	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/opt"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// RequestIDHeader carries the client-supplied (or server-generated)
// request correlation id, echoed on every response.
const RequestIDHeader = "X-Request-ID"

// TenantHeader identifies the submitting tenant to the gateway tier.
const TenantHeader = "X-Tenant"

// IdempotencyKeyHeader carries the replay-suppression key for POST /query.
// The gateway stamps one per request (its request id) before any wire
// attempt; a shard receiving the same key twice within its idempotency
// window returns the original result instead of re-executing the plan.
const IdempotencyKeyHeader = "X-Idempotency-Key"

// AttemptHeader carries the zero-based transport attempt number of a
// (possibly retried) request — diagnostic only; replay suppression keys
// off IdempotencyKeyHeader alone.
const AttemptHeader = "X-Attempt"

// AttemptsLeftHeader carries the attempt allowance a sender grants the
// receiving shard for this request (resilience.Allowance on the wire). A
// gateway's wire send debits one unit of the request's allowance and grants
// exactly that unit: the response that would say what the shard spent can
// be lost, so nothing the sender still holds ever crosses. A direct client
// may send more; the shard clamps it to its own Retry.MaxAttempts.
const AttemptsLeftHeader = "X-Attempts-Left"

// MaxQueryBodyBytes is the default POST /query body cap for both
// front-ends (DecodeQuery); oversize bodies fail with a typed 413.
const MaxQueryBodyBytes = 1 << 20

// QueryRequest is the POST /query body for both front-ends.
type QueryRequest struct {
	Algorithm  string `json:"algorithm,omitempty"`
	Script     string `json:"script,omitempty"`
	Dataset    string `json:"dataset"`
	Iterations int    `json:"iterations,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	TimeoutMS  int    `json:"timeout_ms,omitempty"`
	// MaxIterations caps loop iterations; a program still running at the
	// cap fails with 422 (max-iterations class).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Recovery selects the recovery policy for this query: "lineage",
	// "checkpoint", "coded" or "coded:k,n". Empty uses the server default.
	Recovery string `json:"recovery,omitempty"`
	// Tenant identifies the submitter to the gateway's quota/audit planes
	// (the X-Tenant header wins when both are set; ignored by remac-serve).
	Tenant string `json:"tenant,omitempty"`

	NoPlanCache         bool `json:"no_plan_cache,omitempty"`
	NoIntermediateCache bool `json:"no_intermediate_cache,omitempty"`
}

// ValueSummary reports a result variable without shipping its cells.
// It aliases serve.ValueSummary so a RemoteInstance can decode wire
// summaries straight onto a QueryResult.
type ValueSummary = serve.ValueSummary

// QueryResponse is the POST /query reply: the result's serve.Record as is,
// and in place of its cells the summaries and the hash.
type QueryResponse struct {
	Values map[string]ValueSummary `json:"values"`
	serve.Record

	// ResultHash is the identity of the result's materialized values (hex;
	// integrity.DigestValues): same names, shapes and nonzero cells bit for
	// bit, independent of storage format and of the sign of a zero — what a
	// remote caller can assert without the cells ever crossing the wire.
	ResultHash string `json:"result_hash,omitempty"`

	// RequestID echoes the request correlation id; the gateway also
	// reports which shard served the query and whether it spilled
	// (overload re-route) or failed over (dead-shard re-route).
	RequestID string `json:"request_id,omitempty"`
	Shard     string `json:"shard,omitempty"`
	Spilled   bool   `json:"spilled,omitempty"`
	Failover  bool   `json:"failover,omitempty"`
}

// BuildResponse renders a query result for the wire. The values go as the
// summaries the result carries, so no cell is read here and a result that
// has been released renders exactly as before.
func BuildResponse(res *serve.QueryResult) QueryResponse {
	resp := QueryResponse{Values: make(map[string]ValueSummary, len(res.Summaries)), Record: res.Record}
	if res.ResultHash != 0 {
		resp.ResultHash = fmt.Sprintf("%016x", res.ResultHash)
	}
	for name, vs := range res.Summaries {
		resp.Values[name] = vs
	}
	return resp
}

// QueryBuilder resolves QueryRequests into serve.Queries over the
// registered datasets (data.Load shares each read-only across queries).
type QueryBuilder struct {
	// Recovery is the server-wide default recovery policy, applied to
	// queries that do not carry their own.
	Recovery engine.RecoveryPolicy
}

// NewQueryBuilder returns a builder with the given default recovery policy.
func NewQueryBuilder(recovery engine.RecoveryPolicy) *QueryBuilder {
	return &QueryBuilder{Recovery: recovery}
}

// Build resolves a request into a serve.Query with the dataset's standard
// symbols bound (A, b, H0, x0 — or V, W0, H0 for GNMF).
func (b *QueryBuilder) Build(req QueryRequest) (serve.Query, error) {
	var q serve.Query
	if (req.Algorithm == "") == (req.Script == "") {
		return q, errors.New("exactly one of algorithm or script is required")
	}
	if req.Dataset == "" {
		return q, errors.New("dataset is required")
	}
	ds, err := data.Load(req.Dataset)
	if err != nil {
		return q, err
	}
	iters := req.Iterations
	alg := algorithms.Name(req.Algorithm)
	script := req.Script
	if req.Algorithm != "" {
		if iters == 0 {
			iters = algorithms.DefaultIterations(alg)
		}
		script, err = algorithms.Script(alg, iters)
		if err != nil {
			return q, err
		}
	} else {
		// A raw script may read any least-squares symbol: it gets the full
		// set, which is DFP's.
		alg = algorithms.DFP
		if iters == 0 {
			iters = 15
		}
	}
	bound, err := ds.Inputs(alg)
	if err != nil {
		return q, err
	}
	ins := make(map[string]engine.Input, len(bound))
	for _, in := range bound {
		ins[in.Name] = engine.Input{Data: in.Data, VRows: in.VRows, VCols: in.VCols}
	}
	q = serve.NewQuery(script, ins)
	q.Algorithm = req.Algorithm
	q.Dataset = req.Dataset
	q.Iterations = iters
	q.Strategy, err = opt.ParseStrategy(req.Strategy)
	if err != nil {
		return q, err
	}
	q.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	q.MaxIterations = req.MaxIterations
	q.Recovery = b.Recovery
	if req.Recovery != "" {
		q.Recovery, err = engine.ParseRecovery(req.Recovery)
		if err != nil {
			return q, err
		}
	}
	q.NoPlanCache = req.NoPlanCache
	q.NoIntermediateCache = req.NoIntermediateCache
	return q, nil
}

// requestCounter feeds NewRequestID.
var requestCounter atomic.Uint64

// NewRequestID returns a process-unique request id (nanosecond timestamp
// + counter, hex). Both HTTP front-ends use it when the client did not
// send an X-Request-ID, and the gateway derives idempotency keys from it.
func NewRequestID() string {
	return fmt.Sprintf("%012x-%06x", uint64(time.Now().UnixNano())&0xffffffffffff, requestCounter.Add(1)&0xffffff)
}

// RequestID extracts the X-Request-ID header, generating a fresh id when
// the client sent none (or whitespace).
func RequestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get(RequestIDHeader)); id != "" {
		return id
	}
	return NewRequestID()
}

// Tenant extracts the tenant identity: the X-Tenant header wins, then the
// body field.
func Tenant(r *http.Request, body QueryRequest) string {
	if t := strings.TrimSpace(r.Header.Get(TenantHeader)); t != "" {
		return t
	}
	return strings.TrimSpace(body.Tenant)
}

// ErrorResponse is the structured JSON body of a failed request.
type ErrorResponse struct {
	Error         string  `json:"error"`
	Class         string  `json:"class,omitempty"`
	QueryID       uint64  `json:"query_id,omitempty"`
	Stage         string  `json:"stage,omitempty"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
	RequestID     string  `json:"request_id,omitempty"`
}

// Classify names a failed request the way both front-ends report it: error
// class, HTTP status, Retry-After hint. serve.ErrClosed — admission after
// Shutdown began, which a server wraps in an Overloaded-class QueryError —
// is reported as the "closed" drain marker: 503, retry in a second. Any
// other QueryError gives its class's name and status (resilience's one class
// table), and an overload or quota rejection without a hint gets one second.
// Anything else is an untyped fault: no class, 500. serve.ErrOverloaded,
// engine.ErrCanceled and engine.ErrMaxIterations never arrive bare: every
// producer wraps them in a QueryError.
func Classify(err error) (class string, status int, retryAfter time.Duration) {
	var qe *resilience.QueryError
	switch {
	case errors.Is(err, serve.ErrClosed):
		return "closed", http.StatusServiceUnavailable, time.Second
	case errors.As(err, &qe):
		retryAfter = qe.RetryAfter
		if (qe.Class == resilience.Overloaded || qe.Class == resilience.Quota) && retryAfter <= 0 {
			retryAfter = time.Second
		}
		return qe.Class.String(), qe.Class.HTTPStatus(), retryAfter
	}
	return "", http.StatusInternalServerError, 0
}

// WriteError renders a serving failure as Classify names it, and echoes the
// request id in both the header and the JSON body.
func WriteError(w http.ResponseWriter, requestID string, err error) {
	body := ErrorResponse{Error: err.Error(), RequestID: requestID}
	class, status, retryAfter := Classify(err)
	body.Class = class
	var qe *resilience.QueryError
	if errors.As(err, &qe) {
		body.QueryID, body.Stage = qe.QueryID, qe.Stage
	}
	if retryAfter > 0 {
		body.RetryAfterSec = retryAfter.Seconds()
	}
	writeStatusJSON(w, requestID, status, retryAfter, body)
}

// writeStatusJSON is the one place a JSON body goes out: request id echoed,
// Retry-After (whole seconds, at least 1) when the caller has a hint,
// status, indented body.
func writeStatusJSON(w http.ResponseWriter, requestID string, status int, retryAfter time.Duration, v any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(retryAfter.Seconds()))))
	}
	if requestID != "" {
		w.Header().Set(RequestIDHeader, requestID)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// WriteHealth renders a probe payload: 200 while ok, else 503 with the
// Retry-After hint.
func WriteHealth(w http.ResponseWriter, requestID string, ok bool, retryAfter time.Duration, v any) {
	if ok {
		WriteJSON(w, requestID, v)
		return
	}
	writeStatusJSON(w, requestID, http.StatusServiceUnavailable, retryAfter, v)
}

// badRequest is the Compile-class (400) error of a malformed request.
func badRequest(format string, args ...any) error {
	return &resilience.QueryError{Class: resilience.Compile, Stage: "request", Err: fmt.Errorf(format, args...)}
}

// AttemptsLeft reads the allowance a sender granted (AttemptsLeftHeader):
// 0 when the header is absent, its positive count when present, and an
// error (a 400 for the caller to write) for anything else.
func AttemptsLeft(r *http.Request) (int, error) {
	v := strings.TrimSpace(r.Header.Get(AttemptsLeftHeader))
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("%s must be a positive integer, got %q", AttemptsLeftHeader, v)
	}
	return n, nil
}

// DatasetParam reads the ?dataset= parameter of /invalidate and /version.
// mustExist additionally rejects names the registry does not know, which is
// what keeps the version maps behind /invalidate from growing an entry per
// made-up string. ok is false once the 400 has been written.
func DatasetParam(w http.ResponseWriter, r *http.Request, requestID string, mustExist bool) (ds string, ok bool) {
	ds = strings.TrimSpace(r.URL.Query().Get("dataset"))
	_, known := data.Specs[ds]
	switch {
	case ds == "":
		WriteError(w, requestID, badRequest("dataset parameter required"))
	case mustExist && !known:
		WriteError(w, requestID, badRequest("unknown dataset %q", ds))
	default:
		return ds, true
	}
	return "", false
}

// DecodeQuery reads and decodes a POST /query body bounded by maxBytes
// (0: MaxQueryBodyBytes; negative: unbounded). An oversize body fails with
// a typed 413 JSON error, malformed JSON with a Compile-class 400 — in
// both cases the response has already been written and ok is false.
func DecodeQuery(w http.ResponseWriter, r *http.Request, requestID string, maxBytes int64) (QueryRequest, bool) {
	var req QueryRequest
	if maxBytes == 0 {
		maxBytes = MaxQueryBodyBytes
	}
	body := r.Body
	if maxBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, maxBytes)
	}
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeStatusJSON(w, requestID, http.StatusRequestEntityTooLarge, 0, ErrorResponse{
				Error:     fmt.Sprintf("request body exceeds %d-byte limit", mbe.Limit),
				Class:     "payload-too-large",
				Stage:     "request",
				RequestID: requestID,
			})
			return req, false
		}
		WriteError(w, requestID, badRequest("%w", err))
		return req, false
	}
	return req, true
}

// ParseError is the inverse of WriteError: it reconstructs the typed
// QueryError a front-end rendered into an HTTP error response, so a
// remote caller handles wire failures through exactly the taxonomy an
// in-process caller would see. The class comes from the JSON body when it
// parses (resilience.ClassForStatus otherwise), and the Retry-After header —
// or the body's retry_after_sec — restores the backoff hint on 429/503.
func ParseError(status int, header http.Header, body []byte) *resilience.QueryError {
	qe := &resilience.QueryError{Class: resilience.ClassForStatus(status), Stage: "wire"}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err == nil && er.Error != "" {
		if c, ok := resilience.ClassFromString(er.Class); ok {
			qe.Class = c
		}
		qe.QueryID = er.QueryID
		if er.Stage != "" {
			qe.Stage = er.Stage
		}
		qe.Err = errors.New(er.Error)
		if er.RetryAfterSec > 0 {
			qe.RetryAfter = time.Duration(er.RetryAfterSec * float64(time.Second))
		}
	} else {
		text := strings.TrimSpace(string(body))
		if len(text) > 200 {
			text = text[:200]
		}
		qe.Err = fmt.Errorf("http %d: %s", status, text)
	}
	if ra := strings.TrimSpace(header.Get("Retry-After")); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			qe.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return qe
}

// WriteJSON writes v as indented JSON, echoing the request id header when
// present.
func WriteJSON(w http.ResponseWriter, requestID string, v any) {
	writeStatusJSON(w, requestID, http.StatusOK, 0, v)
}
