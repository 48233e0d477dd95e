package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueryErrorTaxonomy: every class matches its sentinel via errors.Is,
// the wrapped cause keeps matching, and errors.As recovers the fields.
func TestQueryErrorTaxonomy(t *testing.T) {
	cause := errors.New("root cause")
	classes := []Class{Internal, Overloaded, Canceled, Compile, Execution, MaxIterations, Quota}
	for _, c := range classes {
		err := fmt.Errorf("wrapped: %w", &QueryError{Class: c, QueryID: 7, Stage: "execute", Err: cause})
		if !errors.Is(err, c.Sentinel()) {
			t.Errorf("%v: errors.Is against own sentinel failed", c)
		}
		for _, other := range classes {
			if other != c && errors.Is(err, other.Sentinel()) {
				t.Errorf("%v matched %v's sentinel", c, other)
			}
		}
		if !errors.Is(err, cause) {
			t.Errorf("%v: wrapped cause no longer matches", c)
		}
		var qe *QueryError
		if !errors.As(err, &qe) || qe.QueryID != 7 || qe.Stage != "execute" {
			t.Errorf("%v: errors.As lost fields: %+v", c, qe)
		}
		if got, ok := ClassOf(err); !ok || got != c {
			t.Errorf("ClassOf = %v,%v, want %v,true", got, ok, c)
		}
	}
	if _, ok := ClassOf(errors.New("plain")); ok {
		t.Error("ClassOf claimed a plain error carried a class")
	}
}

// TestHTTPStatusMapping pins the class → status contract cmd/remac-serve
// relies on: only internal/execution collapse to 500.
func TestHTTPStatusMapping(t *testing.T) {
	want := map[Class]int{
		Internal:      http.StatusInternalServerError,
		Execution:     http.StatusInternalServerError,
		Overloaded:    http.StatusServiceUnavailable,
		Canceled:      http.StatusGatewayTimeout,
		Compile:       http.StatusBadRequest,
		MaxIterations: http.StatusUnprocessableEntity,
		Quota:         http.StatusTooManyRequests,
	}
	for c, status := range want {
		if got := c.HTTPStatus(); got != status {
			t.Errorf("%v.HTTPStatus() = %d, want %d", c, got, status)
		}
	}
}

// TestTransientMarking: MarkTransient survives wrapping, and a QueryError's
// Transient flag is honored.
func TestTransientMarking(t *testing.T) {
	err := fmt.Errorf("attempt: %w", MarkTransient(errors.New("flaky")))
	if !IsTransient(err) {
		t.Error("wrapped MarkTransient not detected")
	}
	if IsTransient(errors.New("solid")) {
		t.Error("plain error reported transient")
	}
	if !IsTransient(&QueryError{Class: Execution, Transient: true, Err: errors.New("x")}) {
		t.Error("QueryError.Transient not honored")
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
}

// TestBackoffDeterministicCappedJittered: equal (seed, id, attempt) give
// equal delays; delays grow exponentially, stay within [0.5, 1.0)× the
// capped base, and differ across query ids.
func TestBackoffDeterministicCappedJittered(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 3}
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Backoff(42, attempt)
		d2 := p.Backoff(42, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, d1, d2)
		}
		base := 10 * time.Millisecond << (attempt - 1)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d1 < base/2 || d1 >= base {
			t.Errorf("attempt %d: %v outside [%v, %v)", attempt, d1, base/2, base)
		}
	}
	if p.Backoff(1, 1) == p.Backoff(2, 1) {
		t.Error("different query ids drew identical jitter")
	}
	other := p
	other.Seed = 4
	if p.Backoff(42, 1) == other.Backoff(42, 1) {
		t.Error("different seeds drew identical jitter")
	}
}

// TestBackoffGolden pins the jittered delay sequence (nanoseconds, attempts
// 1..6) to the values recorded before the mixer moved into fault.Mix64Key:
// chaos runs replay retry schedules by (seed, query id, attempt).
func TestBackoffGolden(t *testing.T) {
	wire := RetryPolicy{Seed: -7, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	cases := []struct {
		p    RetryPolicy
		id   uint64
		want [6]int64
	}{
		{RetryPolicy{}, 1, [6]int64{9712852, 18007812, 35513503, 64510228, 100174972, 288568849}},
		{RetryPolicy{}, 17, [6]int64{8352726, 13405817, 36167024, 71402241, 135183003, 216062259}},
		{RetryPolicy{}, 1 << 40, [6]int64{5165788, 12046798, 28264760, 40473497, 95116699, 248163008}},
		{RetryPolicy{Seed: 42}, 1, [6]int64{9736824, 18581308, 36565557, 56354407, 130689313, 171823377}},
		{RetryPolicy{Seed: 42}, 17, [6]int64{5061409, 13629385, 36775127, 59770068, 80977597, 206422542}},
		{RetryPolicy{Seed: 42}, 1 << 40, [6]int64{9614195, 16014433, 21894820, 49495050, 82880776, 161955503}},
		{wire, 1, [6]int64{1228032, 3001356, 4710379, 8648308, 13356218, 12640506}},
		{wire, 17, [6]int64{1091601, 2655967, 6443492, 10355012, 17625054, 12664102}},
		{wire, 1 << 40, [6]int64{1176251, 2257560, 5652490, 15909779, 17303300, 10568008}},
	}
	for _, tc := range cases {
		for a, want := range tc.want {
			if got := int64(tc.p.Backoff(tc.id, a+1)); got != want {
				t.Errorf("seed %d base %v id %d attempt %d: %d ns, want %d", tc.p.Seed, tc.p.BaseBackoff, tc.id, a+1, got, want)
			}
		}
	}
}

// TestRetryPolicyDefaults: zero value fills in, negative MaxAttempts means
// one attempt.
func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.MaxAttempts != 3 || p.BaseBackoff != 10*time.Millisecond || p.MaxBackoff != time.Second {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if got := (RetryPolicy{MaxAttempts: -1}).WithDefaults().MaxAttempts; got != 1 {
		t.Errorf("negative MaxAttempts → %d, want 1", got)
	}
}

// TestAllowance: an allowance grants exactly what it was minted with, to
// however many takers race for it, and rides the context like a deadline.
func TestAllowance(t *testing.T) {
	if (*Allowance)(nil).Take() || (*Allowance)(nil).Left() != 0 {
		t.Error("nil allowance granted an attempt")
	}
	if AllowanceFrom(context.Background()) != nil {
		t.Error("bare context carries an allowance")
	}
	a := NewAllowance(5)
	ctx, cancel := context.WithTimeout(WithAllowance(context.Background(), a), time.Minute)
	defer cancel()
	if AllowanceFrom(ctx) != a {
		t.Fatal("allowance lost through a derived context")
	}
	var granted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if AllowanceFrom(ctx).Take() {
					granted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if granted.Load() != 5 || a.Left() != 0 {
		t.Errorf("32 takers were granted %d of 5 attempts, %d left", granted.Load(), a.Left())
	}
}

// TestRedactStack: headers gone, addresses scrubbed, frames capped.
func TestRedactStack(t *testing.T) {
	var b strings.Builder
	b.WriteString("goroutine 17 [running]:\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "pkg.fn%d(0xc000123456, 0x1f)\n\t/src/file%d.go:%d +0x45\n", i, i, i+10)
	}
	got := RedactStack([]byte(b.String()))
	if strings.Contains(got, "[running]") {
		t.Error("goroutine header survived redaction")
	}
	if strings.Contains(got, "0xc000123456") || strings.Contains(got, "+0x45") {
		t.Errorf("addresses survived redaction: %q", got)
	}
	if !strings.Contains(got, "pkg.fn0") {
		t.Error("function names lost")
	}
	if n := strings.Count(got, "\n"); n > maxStackLines+1 {
		t.Errorf("redacted stack has %d lines, want ≤ %d", n, maxStackLines+1)
	}
}
