package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"remac/internal/engine"
	"remac/internal/httpapi"
	"remac/internal/serve"
)

// testHandler builds the same mux main() serves, over an in-process
// server the assertions can read directly.
func testHandler(t *testing.T) (*serve.Server, *http.ServeMux) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 2})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	mux := httpapi.NewServeMux(srv, httpapi.NewQueryBuilder(engine.RecoveryPolicy{}), httpapi.ServeHandlerConfig{})
	return srv, mux
}

// TestInvalidateRejectsNonPOST: GET/PUT/DELETE on /invalidate are 405.
func TestInvalidateRejectsNonPOST(t *testing.T) {
	_, mux := testHandler(t)
	for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, "/invalidate?dataset=cri1", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s /invalidate = %d, want 405", method, rec.Code)
		}
	}
}

// TestInvalidateRejectsMissingDataset: POST without a dataset — absent,
// empty, or whitespace — is 400 with a structured JSON body carrying the
// request id; nothing is invalidated.
func TestInvalidateRejectsMissingDataset(t *testing.T) {
	srv, mux := testHandler(t)
	for _, target := range []string{"/invalidate", "/invalidate?dataset=", "/invalidate?dataset=%20%20"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, target, nil)
		req.Header.Set(httpapi.RequestIDHeader, "rid-inv")
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", target, rec.Code)
			continue
		}
		var body httpapi.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s: error body is not JSON: %v", target, err)
		}
		if body.RequestID != "rid-inv" || body.Error == "" {
			t.Errorf("POST %s: error body %+v lacks request id or message", target, body)
		}
	}
	if v := srv.DatasetVersion(""); v != 0 {
		t.Fatalf("rejected invalidation still bumped a version: %d", v)
	}
}

// TestInvalidateBumpsVersion: a valid POST bumps the dataset version
// (whitespace around the name is trimmed) and reports it.
func TestInvalidateBumpsVersion(t *testing.T) {
	srv, mux := testHandler(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/invalidate?dataset=%20cri1%20", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /invalidate = %d, want 200: %s", rec.Code, rec.Body)
	}
	var body struct {
		Dataset string `json:"dataset"`
		Version int64  `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Dataset != "cri1" || body.Version != 1 {
		t.Fatalf("invalidate reply = %+v, want cri1 at version 1", body)
	}
	if v := srv.DatasetVersion("cri1"); v != 1 {
		t.Fatalf("server version = %d, want 1", v)
	}
}

// TestRequestIDPropagation: a client-sent X-Request-ID is echoed on the
// response header and inside error bodies; absent one, the server
// generates an id and still echoes it.
func TestRequestIDPropagation(t *testing.T) {
	_, mux := testHandler(t)

	// Bad query (unknown dataset): the error body carries the client's id.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"algorithm":"DFP","dataset":"no-such-dataset"}`))
	req.Header.Set(httpapi.RequestIDHeader, "client-id-7")
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad-dataset query = %d, want 400", rec.Code)
	}
	if got := rec.Header().Get(httpapi.RequestIDHeader); got != "client-id-7" {
		t.Fatalf("response header id = %q, want the client's", got)
	}
	var body httpapi.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.RequestID != "client-id-7" {
		t.Fatalf("error body request_id = %q, want client-id-7", body.RequestID)
	}

	// No client id: one is generated, echoed on the header and in the
	// success body.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"algorithm":"DFP","dataset":"cri1","iterations":2}`))
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query = %d, want 200: %s", rec.Code, rec.Body)
	}
	gen := rec.Header().Get(httpapi.RequestIDHeader)
	if gen == "" {
		t.Fatal("no generated request id on the response header")
	}
	var qr httpapi.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID != gen {
		t.Fatalf("body request_id %q != header id %q", qr.RequestID, gen)
	}

	// /stats echoes too.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodGet, "/stats", nil)
	req.Header.Set(httpapi.RequestIDHeader, "stats-id")
	mux.ServeHTTP(rec, req)
	if got := rec.Header().Get(httpapi.RequestIDHeader); got != "stats-id" {
		t.Fatalf("/stats header id = %q, want stats-id", got)
	}
}

// TestOverlongIDsAreRefused: an X-Request-ID or X-Idempotency-Key longer
// than httpapi.MaxIDBytes is a compile-class 400 — an overlong request id
// answered under one the server generated — that executes nothing and
// enters no idempotency key. Values at the bound are served.
func TestOverlongIDsAreRefused(t *testing.T) {
	srv, mux := testHandler(t)
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
	if snap := srv.Metrics(); snap.Executions != 0 || snap.IdemEntries != 0 {
		t.Fatalf("refused requests left %d executions, %d idempotency entries; want none", snap.Executions, snap.IdemEntries)
	}
	for i, header := range []string{httpapi.RequestIDHeader, httpapi.IdempotencyKeyHeader} {
		if rec := post(header, strings.Repeat(string(rune('a'+i)), httpapi.MaxIDBytes)); rec.Code != http.StatusOK {
			t.Errorf("%d-byte %s = %d, want 200: %s", httpapi.MaxIDBytes, header, rec.Code, rec.Body)
		}
	}
	if snap := srv.Metrics(); snap.Executions != 2 || snap.IdemEntries != 1 {
		t.Fatalf("two served requests left %d executions, %d idempotency entries; want 2 and 1", snap.Executions, snap.IdemEntries)
	}
}
