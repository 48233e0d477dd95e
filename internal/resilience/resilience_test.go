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

// TestBackoffDeterministicCappedJittered: equal (id, attempt) give equal
// delays; delays grow exponentially, stay within [0.5, 1.0)× the capped
// base, and differ across ids.
func TestBackoffDeterministicCappedJittered(t *testing.T) {
	const base, ceiling = 10 * time.Millisecond, 80 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := Backoff(base, ceiling, 42, attempt)
		d2 := Backoff(base, ceiling, 42, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, d1, d2)
		}
		capped := min(base<<(attempt-1), ceiling)
		if d1 < capped/2 || d1 >= capped {
			t.Errorf("attempt %d: %v outside [%v, %v)", attempt, d1, capped/2, capped)
		}
	}
	if Backoff(base, ceiling, 1, 1) == Backoff(base, ceiling, 2, 1) {
		t.Error("different ids drew identical jitter")
	}
}

// TestBackoffGolden pins the jittered delay sequence (nanoseconds, attempts
// 1..6) at a 10ms base and 1s ceiling to the values the seed-0 retry schedule
// drew before it became a plain function: chaos runs replay retry schedules
// by (id, attempt). The wire's own parameters are pinned by the gateway's
// TestWireBackoffGolden.
func TestBackoffGolden(t *testing.T) {
	for _, tc := range []struct {
		id   uint64
		want [6]int64
	}{
		{1, [6]int64{9712852, 18007812, 35513503, 64510228, 100174972, 288568849}},
		{17, [6]int64{8352726, 13405817, 36167024, 71402241, 135183003, 216062259}},
		{1 << 40, [6]int64{5165788, 12046798, 28264760, 40473497, 95116699, 248163008}},
	} {
		for a, want := range tc.want {
			if got := int64(Backoff(10*time.Millisecond, time.Second, tc.id, a+1)); got != want {
				t.Errorf("id %d attempt %d: %d ns, want %d", tc.id, a+1, got, want)
			}
		}
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
