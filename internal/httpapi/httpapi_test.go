package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"remac/internal/opt"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// allClasses is every resilience taxonomy class with a wire name.
var allClasses = []resilience.Class{
	resilience.Internal,
	resilience.Overloaded,
	resilience.Canceled,
	resilience.Compile,
	resilience.Execution,
	resilience.MaxIterations,
	resilience.Integrity,
	resilience.Numeric,
	resilience.Quota,
}

// TestErrorTaxonomyRoundTrip: WriteError → ParseError is lossless for
// every resilience class — class, query id, stage and Retry-After all
// survive the wire, so a RemoteInstance handles shard failures through
// exactly the typed taxonomy an in-process caller sees.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	for _, class := range allClasses {
		in := &resilience.QueryError{
			Class:   class,
			QueryID: 42,
			Stage:   "execute",
			Err:     fmt.Errorf("synthetic %s failure", class),
		}
		if class == resilience.Quota {
			in.RetryAfter = 3 * time.Second
		}
		rec := httptest.NewRecorder()
		WriteError(rec, "rid-rt", in)

		if rec.Code != class.HTTPStatus() {
			t.Errorf("%s: wrote status %d, want %d", class, rec.Code, class.HTTPStatus())
		}
		if got := rec.Header().Get(RequestIDHeader); got != "rid-rt" {
			t.Errorf("%s: response header id %q, want rid-rt", class, got)
		}
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", class, err)
		}
		if body.RequestID != "rid-rt" {
			t.Errorf("%s: body request_id %q, want rid-rt", class, body.RequestID)
		}

		out := ParseError(rec.Code, rec.Header(), rec.Body.Bytes())
		if out.Class != class {
			t.Errorf("%s: parsed back as %s", class, out.Class)
		}
		if out.QueryID != 42 || out.Stage != "execute" {
			t.Errorf("%s: parsed id/stage = %d/%q, want 42/execute", class, out.QueryID, out.Stage)
		}
		if !strings.Contains(out.Err.Error(), "synthetic") {
			t.Errorf("%s: parsed message %q lost the original text", class, out.Err)
		}
		switch class {
		case resilience.Quota:
			if out.RetryAfter != 3*time.Second {
				t.Errorf("Quota: parsed Retry-After %v, want 3s", out.RetryAfter)
			}
		case resilience.Overloaded:
			// WriteError defaults overload rejections to a 1s hint.
			if out.RetryAfter < time.Second {
				t.Errorf("Overloaded: parsed Retry-After %v, want >= 1s", out.RetryAfter)
			}
		}
	}
}

// TestParseErrorStatusFallback: an unparseable body degrades to the
// status-code mapping — 429 → Quota, 503 → Overloaded, 504 → Canceled,
// 400/413 → Compile, 422 → MaxIterations, anything else → Internal —
// with the raw text preserved in the message.
func TestParseErrorStatusFallback(t *testing.T) {
	cases := []struct {
		status int
		class  resilience.Class
	}{
		{http.StatusTooManyRequests, resilience.Quota},
		{http.StatusServiceUnavailable, resilience.Overloaded},
		{http.StatusGatewayTimeout, resilience.Canceled},
		{http.StatusBadRequest, resilience.Compile},
		{http.StatusRequestEntityTooLarge, resilience.Compile},
		{http.StatusUnprocessableEntity, resilience.MaxIterations},
		{http.StatusInternalServerError, resilience.Internal},
		{http.StatusBadGateway, resilience.Internal},
	}
	for _, c := range cases {
		qe := ParseError(c.status, http.Header{}, []byte("<html>not json</html>"))
		if qe.Class != c.class {
			t.Errorf("status %d parsed as %s, want %s", c.status, qe.Class, c.class)
		}
		if !strings.Contains(qe.Err.Error(), "not json") {
			t.Errorf("status %d: raw body text lost: %q", c.status, qe.Err)
		}
	}
}

// TestParseErrorRetryAfterHeader: the Retry-After header is authoritative
// over the body's retry_after_sec.
func TestParseErrorRetryAfterHeader(t *testing.T) {
	body, _ := json.Marshal(ErrorResponse{Error: "busy", Class: "overloaded", RetryAfterSec: 1})
	h := http.Header{}
	h.Set("Retry-After", "7")
	qe := ParseError(http.StatusServiceUnavailable, h, body)
	if qe.RetryAfter != 7*time.Second {
		t.Fatalf("Retry-After = %v, want 7s (header wins over body)", qe.RetryAfter)
	}
}

// TestClassFromStringRoundTrip: every class's wire name parses back to
// itself; unknown names report !ok.
func TestClassFromStringRoundTrip(t *testing.T) {
	for _, class := range allClasses {
		got, ok := resilience.ClassFromString(class.String())
		if !ok || got != class {
			t.Errorf("ClassFromString(%q) = %v,%v, want %v,true", class.String(), got, ok, class)
		}
	}
	if _, ok := resilience.ClassFromString("closed"); ok {
		t.Error("ClassFromString accepted the non-taxonomy drain marker")
	}
	if _, ok := resilience.ClassFromString("no-such-class"); ok {
		t.Error("ClassFromString accepted an unknown name")
	}
}

// TestStrategyNameRoundTrip: opt.ParseStrategy(s.Name()) == s for every
// strategy a query can name, so remote re-submission preserves elimination
// behavior.
func TestStrategyNameRoundTrip(t *testing.T) {
	for _, s := range []opt.Strategy{
		opt.Adaptive, opt.NoElimination, opt.Explicit,
		opt.Conservative, opt.Aggressive, opt.Automatic,
	} {
		back, err := opt.ParseStrategy(s.Name())
		if err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if back != s {
			t.Errorf("strategy %v round-tripped to %v", s, back)
		}
	}
}

// TestDecodeQueryBodyCap: a body over the cap fails with a typed 413 JSON
// error; one under it decodes; malformed JSON is a Compile-class 400.
func TestDecodeQueryBodyCap(t *testing.T) {
	big := fmt.Sprintf(`{"algorithm":"DFP","dataset":"cri1","script":%q}`, strings.Repeat("x", 4096))
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(big))
	if _, ok := DecodeQuery(rec, r, "rid-413", 256); ok {
		t.Fatal("oversize body decoded")
	}
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body = %d, want 413", rec.Code)
	}
	var body ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if body.Class != "payload-too-large" || body.RequestID != "rid-413" {
		t.Fatalf("413 body = %+v, want payload-too-large with request id", body)
	}

	rec = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"algorithm":"DFP","dataset":"cri1"}`))
	req, ok := DecodeQuery(rec, r, "rid-ok", 256)
	if !ok || req.Algorithm != "DFP" || req.Dataset != "cri1" {
		t.Fatalf("small body failed to decode: ok=%v req=%+v", ok, req)
	}

	rec = httptest.NewRecorder()
	r = httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"algorithm":`))
	if _, ok := DecodeQuery(rec, r, "rid-bad", 0); ok {
		t.Fatal("malformed body decoded")
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", rec.Code)
	}
	out := ParseError(rec.Code, rec.Header(), rec.Body.Bytes())
	if out.Class != resilience.Compile {
		t.Fatalf("malformed body parsed as %s, want compile", out.Class)
	}
}

// TestValueSummaryNonFiniteRoundTrip: a diverged solve's NaN/Inf norm
// must survive the wire as a string instead of killing the response with
// an encode failure.
func TestValueSummaryNonFiniteRoundTrip(t *testing.T) {
	for _, f := range []float64{3.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		in := ValueSummary{Rows: 2, Cols: 3, Frobenius: f}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("norm %v failed to encode: %v", f, err)
		}
		var out ValueSummary
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("norm %v failed to decode from %s: %v", f, b, err)
		}
		if out.Rows != 2 || out.Cols != 3 {
			t.Fatalf("norm %v: shape lost: %+v", f, out)
		}
		if math.Float64bits(out.Frobenius) != math.Float64bits(f) {
			t.Fatalf("norm %v round-tripped to %v", f, out.Frobenius)
		}
	}
}

// TestWriteErrorUntypedDrainMarkers: the drain marker keeps its status
// however it arrives — bare, or as the Overloaded-class error a shut-down
// server returns, serve.ErrClosed is a 503 with Retry-After 1 and class
// "closed", which ParseError reads back by status as Overloaded — and an
// error without a class is a classless 500, read back as Internal.
func TestWriteErrorUntypedDrainMarkers(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, closed := srv.Do(context.Background(), serve.Query{})
	for _, tc := range []struct {
		err        error
		status     int
		retryAfter string
		class      string
		parsed     resilience.Class
	}{
		{fmt.Errorf("wrapped: %w", serve.ErrClosed), http.StatusServiceUnavailable, "1", "closed", resilience.Overloaded},
		{closed, http.StatusServiceUnavailable, "1", "closed", resilience.Overloaded},
		{fmt.Errorf("wrapped: %w", errors.New("plain failure")), http.StatusInternalServerError, "", "", resilience.Internal},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, "rid-d", tc.err)
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: error body is not JSON: %v", tc.err, err)
		}
		if rec.Code != tc.status || rec.Header().Get("Retry-After") != tc.retryAfter || body.Class != tc.class {
			t.Errorf("%v = %d, Retry-After %q, class %q; want %d, %q, %q",
				tc.err, rec.Code, rec.Header().Get("Retry-After"), body.Class, tc.status, tc.retryAfter, tc.class)
		}
		if qe := ParseError(rec.Code, rec.Header(), rec.Body.Bytes()); qe.Class != tc.parsed {
			t.Errorf("%v parsed as %s, want %s", tc.err, qe.Class, tc.parsed)
		}
	}
}
