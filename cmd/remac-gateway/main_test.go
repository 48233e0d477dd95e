package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"remac/internal/chain"
	"remac/internal/engine"
	"remac/internal/gateway"
	"remac/internal/httpapi"
	"remac/internal/resilience"
	"remac/internal/serve"
)

func testHandler(t *testing.T, cfg gateway.Config) (*handler, *http.ServeMux) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Serve.Workers == 0 {
		cfg.Serve = serve.Config{Workers: 2}
	}
	gw := gateway.New(cfg)
	t.Cleanup(func() { gw.Shutdown(context.Background()) })
	h := &handler{gw: gw, builder: httpapi.NewQueryBuilder(engine.RecoveryPolicy{})}
	return h, newMux(h)
}

// TestGatewayQueryEndToEnd: a query through the HTTP front-end reports
// the serving shard and request id; the audit endpoint shows it.
func TestGatewayQueryEndToEnd(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"algorithm":"DFP","dataset":"cri1","iterations":2,"tenant":"alice"}`))
	req.Header.Set(httpapi.RequestIDHeader, "e2e-1")
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	var resp httpapi.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "e2e-1" || resp.Shard == "" || resp.Spilled {
		t.Fatalf("response routing metadata = %+v", resp)
	}
	if len(resp.Values) == 0 {
		t.Fatal("no result values")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/audit?n=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("audit = %d", rec.Code)
	}
	var audit struct {
		Events []gateway.Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &audit); err != nil {
		t.Fatal(err)
	}
	if len(audit.Events) != 1 {
		t.Fatalf("audit tail has %d events, want 1", len(audit.Events))
	}
	e := audit.Events[0]
	if e.Tenant != "alice" || e.RequestID != "e2e-1" || e.Outcome != "ok" {
		t.Fatalf("audit event = %+v", e)
	}
}

// TestGatewayRejectsUnplaceableRecovery: a coded policy with more parity
// than data groups fails the gateway's own parse, and one with more data
// groups than the shard's cluster has workers fails in the shard's engine;
// both reach the client as the same compile-class 400.
func TestGatewayRejectsUnplaceableRecovery(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{})
	for _, recovery := range []string{"coded:2,100000", "coded:7,9"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(
			`{"algorithm":"GD","dataset":"cri1","iterations":2,"recovery":"`+recovery+`"}`)))
		var body httpapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", recovery, err)
		}
		if rec.Code != http.StatusBadRequest || body.Class != resilience.Compile.String() {
			t.Errorf("%s = %d class %q, want a compile-class 400", recovery, rec.Code, body.Class)
		}
	}
}

// TestGatewayLongChainIsBounded: the gateway front-end rejects a loop-free
// chain over chain.MaxBlockAtoms as a compile-class 400 under every strategy,
// the SystemDS baselines (which run it as written, searching nothing) too,
// like the serve front-end (httpapi's TestLongChainIsBounded).
func TestGatewayLongChainIsBounded(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{})
	script := "A = read(\"A\")\nx = read(\"x0\")\nr = " + strings.Repeat("t(A) %*% A %*% ", chain.MaxBlockAtoms/2+1) + "x\n"
	for _, strategy := range []string{"none", "explicit", "adaptive"} {
		body, err := json.Marshal(httpapi.QueryRequest{Dataset: "cri1", Script: script, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(string(body))))
		var resp httpapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", strategy, err)
		}
		if rec.Code != http.StatusBadRequest || resp.Class != resilience.Compile.String() || !strings.Contains(resp.Error, chain.ErrBlockTooLong.Error()) {
			t.Errorf("%s = %d class %q, want a compile-class 400 for the block cap: %s", strategy, rec.Code, resp.Class, rec.Body)
		}
	}
}

// TestGatewayTenantHeaderWins: X-Tenant overrides the body field.
func TestGatewayTenantHeaderWins(t *testing.T) {
	h, mux := testHandler(t, gateway.Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"algorithm":"DFP","dataset":"cri1","iterations":2,"tenant":"body-tenant"}`))
	req.Header.Set(httpapi.TenantHeader, "header-tenant")
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d: %s", rec.Code, rec.Body)
	}
	st := h.gw.Stats()
	if _, ok := st.Tenants["header-tenant"]; !ok {
		t.Fatalf("tenants = %v, want header-tenant", st.Tenants)
	}
}

// TestGatewayQuotaRejectionHTTP: an over-quota tenant gets 429 with
// Retry-After and a structured body naming the quota class.
func TestGatewayQuotaRejectionHTTP(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{
		Quotas: map[string]gateway.TenantQuota{"noisy": {QPS: 0.001, Burst: 1}},
	})
	body := `{"algorithm":"DFP","dataset":"cri1","iterations":2}`
	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		req.Header.Set(httpapi.TenantHeader, "noisy")
		mux.ServeHTTP(rec, req)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		t.Fatalf("first query = %d: %s", rec.Code, rec.Body)
	}
	rec := do()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota query = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er httpapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != "quota" || er.RequestID == "" {
		t.Fatalf("429 body = %+v, want quota class with request id", er)
	}
}

// TestGatewayInvalidateHTTP: the same 405/400 hardening as remac-serve,
// and a valid POST reports the fanned-out shard versions.
func TestGatewayInvalidateHTTP(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/invalidate?dataset=cri1", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /invalidate = %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty dataset = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=cri1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /invalidate = %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Dataset       string  `json:"dataset"`
		Version       int64   `json:"version"`
		ShardVersions []int64 `json:"shard_versions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Version != 1 || len(body.ShardVersions) != 2 {
		t.Fatalf("invalidate reply = %+v", body)
	}
	for i, v := range body.ShardVersions {
		if v != 1 {
			t.Fatalf("shard %d at version %d after fan-out reply, want 1", i, v)
		}
	}
}

// TestParseQuota covers the -quota flag grammar.
func TestParseQuota(t *testing.T) {
	name, q, err := parseQuota("noisy=0.5:1:2")
	if err != nil || name != "noisy" || q.QPS != 0.5 || q.Burst != 1 || q.MaxConcurrent != 2 {
		t.Fatalf("parseQuota full = %q %+v %v", name, q, err)
	}
	if _, q, err = parseQuota("t=4"); err != nil || q.QPS != 4 || q.Burst != 0 {
		t.Fatalf("parseQuota qps-only = %+v %v", q, err)
	}
	for _, bad := range []string{"", "noquota", "=1", "t=", "t=x", "t=1:y", "t=1:2:3:4", "t=-1"} {
		if _, _, err := parseQuota(bad); err == nil {
			t.Errorf("parseQuota(%q) accepted", bad)
		}
	}
}

// TestHealthQuorum: a fleet below its ready quorum answers 503 with a
// Retry-After hint on both health endpoints, and /stats exposes each
// shard's lifecycle state so an operator can see why.
func TestHealthQuorum(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{Shards: 1, ReadyQuorum: 2})
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s below quorum = %d, want 503: %s", path, rec.Code, rec.Body)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%s: 503 without Retry-After", path)
		}
		var hz gateway.Health
		if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if hz.OK || hz.ReadyShards != 1 || hz.Quorum != 2 {
			t.Fatalf("%s health = %+v, want !OK with 1/2 quorum", path, hz)
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var st gateway.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.PerShard) != 1 || st.PerShard[0].Lifecycle.State != "healthy" {
		t.Fatalf("stats lifecycle = %+v, want one healthy shard", st.PerShard)
	}
}

// TestHealthAtQuorum: with quorum satisfied, both endpoints answer 200.
func TestHealthAtQuorum(t *testing.T) {
	_, mux := testHandler(t, gateway.Config{Shards: 2, ReadyQuorum: 2})
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s at quorum = %d, want 200: %s", path, rec.Code, rec.Body)
		}
	}
}

// TestOverlongIDsAreRefused: the gateway front-end refuses an X-Request-ID
// or X-Idempotency-Key longer than httpapi.MaxIDBytes as remac-serve does —
// a compile-class 400, under a generated id when the request id is the
// overlong one — before routing: no shard executes and no idempotency key
// is entered. Values at the bound are served.
func TestOverlongIDsAreRefused(t *testing.T) {
	h, mux := testHandler(t, gateway.Config{})
	post := func(header, value string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query",
			strings.NewReader(`{"algorithm":"GD","dataset":"cri1","iterations":2}`))
		req.Header.Set(header, value)
		mux.ServeHTTP(rec, req)
		return rec
	}
	long := strings.Repeat("k", httpapi.MaxIDBytes+1)
	for _, header := range []string{httpapi.RequestIDHeader, httpapi.IdempotencyKeyHeader} {
		rec := post(header, long)
		var body httpapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", header, err)
		}
		rid := rec.Header().Get(httpapi.RequestIDHeader)
		if rec.Code != http.StatusBadRequest || body.Class != "compile" || rid == "" || rid == long || body.RequestID != rid {
			t.Errorf("%d-byte %s = %d class %q, request id %.20q (body %.20q); want a compile-class 400 under a short id",
				len(long), header, rec.Code, body.Class, rid, body.RequestID)
		}
	}
	if m := h.gw.Stats().Merged; m.Executions != 0 || m.IdemEntries != 0 {
		t.Fatalf("refused requests left %d executions, %d idempotency entries; want none", m.Executions, m.IdemEntries)
	}
	for i, header := range []string{httpapi.RequestIDHeader, httpapi.IdempotencyKeyHeader} {
		if rec := post(header, strings.Repeat(string(rune('a'+i)), httpapi.MaxIDBytes)); rec.Code != http.StatusOK {
			t.Errorf("%d-byte %s = %d, want 200: %s", httpapi.MaxIDBytes, header, rec.Code, rec.Body)
		}
	}
	// Each served request enters one key: the request id the gateway stamps,
	// or the client's own.
	if m := h.gw.Stats().Merged; m.Executions != 2 || m.IdemEntries != 2 {
		t.Fatalf("two served requests left %d executions, %d idempotency entries; want 2 and 2", m.Executions, m.IdemEntries)
	}
}
