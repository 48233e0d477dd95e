package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"remac/internal/chain"
	"remac/internal/engine"
	"remac/internal/resilience"
	"remac/internal/serve"
)

// TestLongChainIsBounded: a script whose multiplication chain has more than
// chain.MaxBlockAtoms factors is a compile-class 400 before the planner
// prices it, and one at the cap compiles and runs.
func TestLongChainIsBounded(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	mux := NewServeMux(srv, NewQueryBuilder(engine.RecoveryPolicy{}), ServeHandlerConfig{})
	// post sends x = … %*% t(A) %*% b, atoms factors in all: A and t(A)
	// alternate so that every product is defined and the result is a vector.
	post := func(atoms int) (*httptest.ResponseRecorder, time.Duration) {
		factors := make([]string, atoms-1)
		for i := range factors {
			factors[i] = "t(A)"
			if (atoms-1-i)%2 == 0 {
				factors[i] = "A"
			}
		}
		script := "A = read(\"A\")\nb = read(\"b\")\nx = " + strings.Join(factors, " %*% ") + " %*% b\n"
		body, err := json.Marshal(QueryRequest{Dataset: "cri1", Script: script})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		return rec, time.Since(start)
	}
	if rec, _ := post(chain.MaxBlockAtoms); rec.Code != http.StatusOK {
		t.Fatalf("%d atoms = %d: %s", chain.MaxBlockAtoms, rec.Code, rec.Body)
	}
	for _, atoms := range []int{chain.MaxBlockAtoms + 1, 1001} {
		rec, wall := post(atoms)
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%d atoms: error body is not JSON: %v", atoms, err)
		}
		if rec.Code != http.StatusBadRequest || body.Class != resilience.Compile.String() {
			t.Errorf("%d atoms = %d class %q, want a compile-class 400: %s", atoms, rec.Code, body.Class, rec.Body)
		}
		if wall > time.Second {
			t.Errorf("%d atoms took %v to reject", atoms, wall)
		}
	}
}

// TestAttemptsLeftHeaderBoundsTheShard: X-Attempts-Left is the allowance
// the sender grants. A gateway's send carries 1, and then the plan executes
// at most once — no retry. A direct client may ask for more and is clamped to
// the server's own Retry.MaxAttempts. Anything but a positive integer is a
// typed 400 that never reaches the engine.
func TestAttemptsLeftHeaderBoundsTheShard(t *testing.T) {
	srv := serve.New(serve.Config{
		Workers: 2,
		Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	defer srv.Shutdown(context.Background())
	var execs atomic.Int32
	mux := NewServeMux(srv, NewQueryBuilder(engine.RecoveryPolicy{}), ServeHandlerConfig{
		OnQuery: func(q *serve.Query, r *http.Request) {
			flaky := r.Header.Get("X-Test-Mode") == "flaky"
			q.Probe = func(int) error {
				execs.Add(1)
				if flaky {
					return resilience.MarkTransient(errors.New("induced transient failure"))
				}
				return nil
			}
		},
	})
	post := func(mode, attemptsLeft string) *httptest.ResponseRecorder {
		t.Helper()
		execs.Store(0)
		req := httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"algorithm":"GD","dataset":"cri1","iterations":2}`))
		req.Header.Set("X-Test-Mode", mode)
		if attemptsLeft != "" {
			req.Header.Set(AttemptsLeftHeader, attemptsLeft)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}

	for _, tc := range []struct {
		header string
		want   int32
	}{{"1", 1}, {"2", 2}, {"3", 3}, {"50", 3}, {"", 3}} {
		rec := post("flaky", tc.header)
		if rec.Code != http.StatusInternalServerError || execs.Load() != tc.want {
			t.Errorf("%s: %q on an always-transient query = %d with %d executions, want 500 after %d",
				AttemptsLeftHeader, tc.header, rec.Code, execs.Load(), tc.want)
		}
	}

	for _, bad := range []string{"abc", "-1", "0", "1.5", "2 3"} {
		rec := post("", bad)
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%q: error body is not JSON: %v", bad, err)
		}
		if rec.Code != http.StatusBadRequest || body.Class != resilience.Compile.String() || execs.Load() != 0 {
			t.Errorf("%s: %q = %d class %q after %d executions, want a compile-class 400 and none",
				AttemptsLeftHeader, bad, rec.Code, body.Class, execs.Load())
		}
	}
}

// TestHostileInvalidateCardinalityIsBounded (shard front-end): the dataset
// name of POST /invalidate is a client-supplied string and the version map
// behind it has no eviction, so only names the registry knows may reach it.
// 100k made-up names are 100k typed 400s and not one version entry — an
// entry exists only once it has been bumped, so version 0 means none.
func TestHostileInvalidateCardinalityIsBounded(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	mux := NewServeMux(srv, NewQueryBuilder(engine.RecoveryPolicy{}), ServeHandlerConfig{})
	const hostile = 100_000
	for i := 0; i < hostile; i++ {
		name := fmt.Sprintf("bot-%d", i)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset="+name, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /invalidate?dataset=%s = %d, want 400", name, rec.Code)
		}
		if i%997 == 0 {
			if v := srv.DatasetVersion(name); v != 0 {
				t.Fatalf("rejected name %q holds a version entry (%d)", name, v)
			}
		}
	}
	var body ErrorResponse
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=nope", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Class != resilience.Compile.String() {
		t.Fatalf("unknown dataset body %s (err %v), want a compile-class error", rec.Body, err)
	}
	// Known names still work, and reading a version never creates one.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/version?dataset=bot-1", nil))
	if rec.Code != http.StatusOK || srv.DatasetVersion("bot-1") != 0 {
		t.Fatalf("GET /version of an unknown name = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=cri1", nil))
	if rec.Code != http.StatusOK || srv.DatasetVersion("cri1") != 1 {
		t.Fatalf("POST /invalidate?dataset=cri1 = %d, version %d", rec.Code, srv.DatasetVersion("cri1"))
	}
}

// TestHostileRecoveryIsBounded (shard front-end): the coded (k, n) of a
// query's recovery policy is a client-supplied size, and the parity of every
// value the run makes is allocated by it. Parity beyond k blocks, or more data
// groups than the cluster has workers, is a typed 400 — at parse time, or
// from the engine once the query's cluster is known — that returns within
// its wall bound and allocates next to nothing (coded:2,100000 used to run
// out of memory encoding parity).
func TestHostileRecoveryIsBounded(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	mux := NewServeMux(srv, NewQueryBuilder(engine.RecoveryPolicy{}), ServeHandlerConfig{})
	post := func(recovery string) (*httptest.ResponseRecorder, time.Duration) {
		body := `{"algorithm":"GD","dataset":"cri1","iterations":2,"recovery":"` + recovery + `"}`
		rec := httptest.NewRecorder()
		start := time.Now()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec, time.Since(start)
	}
	// The largest code the default cluster (six workers) takes runs, and
	// leaves the dataset loaded and the plan cached for what follows.
	if rec, _ := post("coded:6,12"); rec.Code != http.StatusOK {
		t.Fatalf("coded:6,12 = %d: %s", rec.Code, rec.Body)
	}
	const wallBound = 2 * time.Second
	const allocCeiling = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, hostile := range []string{"coded:2,100000", "coded:2,300", "coded:4,9", "coded:7,9", "coded:1000,1001"} {
		rec, wall := post(hostile)
		var body ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", hostile, err)
		}
		if rec.Code != http.StatusBadRequest || body.Class != resilience.Compile.String() {
			t.Errorf("%s = %d class %q, want a compile-class 400", hostile, rec.Code, body.Class)
		}
		if wall > wallBound {
			t.Errorf("%s took %v to reject, bound %v", hostile, wall, wallBound)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("the rejections allocated %.2f MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if got := after.TotalAlloc - before.TotalAlloc; got > allocCeiling {
		t.Errorf("rejecting the hostile policies allocated %.1f MB, ceiling %d MB", float64(got)/(1<<20), allocCeiling>>20)
	}
}
