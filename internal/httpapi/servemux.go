package httpapi

import (
	"context"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"remac/internal/serve"
)

// ServeHandlerConfig parameterizes the single-shard HTTP front-end.
type ServeHandlerConfig struct {
	// MaxBodyBytes caps POST /query bodies (0: MaxQueryBodyBytes;
	// negative: unbounded).
	MaxBodyBytes int64
	// OnQuery, when non-nil, observes (and may adjust) every built query
	// just before submission — the chaos harness uses it to attach
	// execution-counting probes without touching the wire protocol.
	OnQuery func(q *serve.Query, r *http.Request)
}

// Endpoint adapts h to a handler with the preamble every endpoint of both
// front-ends starts with: any method but the endpoint's own is a 405, and
// the request id is read (or generated) once.
func Endpoint(method string, h func(w http.ResponseWriter, r *http.Request, requestID string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, method+" required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r, RequestID(r))
	}
}

// DecodeAndBuild is the front half of POST /query on both front-ends: the
// body-capped decode, the dataset-bound build, and the client's idempotency
// key. ok is false once the error response has been written.
func (b *QueryBuilder) DecodeAndBuild(w http.ResponseWriter, r *http.Request, requestID string, maxBytes int64) (req QueryRequest, q serve.Query, ok bool) {
	if req, ok = DecodeQuery(w, r, requestID, maxBytes); !ok {
		return req, q, false
	}
	q, err := b.Build(req)
	if err != nil {
		WriteError(w, requestID, badRequest("%w", err))
		return req, q, false
	}
	// A client-pinned key survives client-side retries across connections;
	// without one a gateway stamps the request id, so its own re-sends and
	// failovers stay replay-safe.
	if key := strings.TrimSpace(r.Header.Get(IdempotencyKeyHeader)); key != "" {
		q.IdempotencyKey = key
	}
	return req, q, true
}

// serveHandler adapts one serve.Server to HTTP. cmd/remac-serve and the
// remote-transport test/bench harnesses share it through NewServeMux, so
// a RemoteInstance always talks to exactly the handler the real binary
// runs.
type serveHandler struct {
	srv     *serve.Server
	builder *QueryBuilder
	cfg     ServeHandlerConfig
}

// NewServeMux wires the single-shard HTTP front-end over a serve.Server:
// POST /query (body-capped, idempotency-key and allowance aware), GET
// /stats, /healthz, /readyz, /version, and POST /invalidate.
func NewServeMux(srv *serve.Server, builder *QueryBuilder, cfg ServeHandlerConfig) *http.ServeMux {
	h := &serveHandler{srv: srv, builder: builder, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", Endpoint(http.MethodPost, h.query))
	mux.HandleFunc("/stats", Endpoint(http.MethodGet, func(w http.ResponseWriter, _ *http.Request, rid string) {
		WriteJSON(w, rid, srv.Metrics())
	}))
	mux.HandleFunc("/healthz", Endpoint(http.MethodGet, func(w http.ResponseWriter, _ *http.Request, rid string) {
		WriteJSON(w, rid, srv.Healthz())
	}))
	mux.HandleFunc("/readyz", Endpoint(http.MethodGet, func(w http.ResponseWriter, _ *http.Request, rid string) {
		hz := srv.Readyz()
		WriteHealth(w, rid, hz.OK, time.Duration(hz.RetryAfterSec*float64(time.Second)), hz)
	}))
	mux.HandleFunc("/invalidate", Endpoint(http.MethodPost, h.version))
	mux.HandleFunc("/version", Endpoint(http.MethodGet, h.version))
	return mux
}

func (h *serveHandler) query(w http.ResponseWriter, r *http.Request, rid string) {
	_, q, ok := h.builder.DecodeAndBuild(w, r, rid, h.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	// A gateway's send grants the unit it debited; a direct client may ask
	// for more and is clamped to the server's own allowance.
	var err error
	if q.Attempts, err = AttemptsLeft(r); err != nil {
		WriteError(w, rid, badRequest("%w", err))
		return
	}
	if h.cfg.OnQuery != nil {
		h.cfg.OnQuery(&q, r)
	}
	res, err := h.srv.Do(r.Context(), q)
	if err != nil {
		WriteError(w, rid, err)
		return
	}
	resp := BuildResponse(res)
	resp.RequestID = rid
	WriteJSON(w, rid, resp)
	// The reply is all this caller wanted of the result, and all a replay
	// from the idempotency window will want.
	res.Release()
}

// version reports the shard's current version for one dataset — the
// acknowledgment a gateway's invalidation catch-up reads over the wire —
// after bumping it when the request is the POST (/invalidate), which only
// takes names the registry knows.
func (h *serveHandler) version(w http.ResponseWriter, r *http.Request, rid string) {
	bump := r.Method == http.MethodPost
	ds, ok := DatasetParam(w, r, rid, bump)
	if !ok {
		return
	}
	if bump {
		h.srv.InvalidateDataset(ds)
	}
	WriteJSON(w, rid, VersionResponse{Dataset: ds, Version: h.srv.DatasetVersion(ds)})
}

// VersionResponse is the GET /version (and POST /invalidate) reply of the
// shard front-end.
type VersionResponse struct {
	Dataset string `json:"dataset"`
	Version int64  `json:"version"`
}

// ListenAndDrain is the life of a front-end process: serve handler on addr
// until SIGINT or SIGTERM, then stop accepting, let in-flight requests
// finish, and drain what is behind the handler — 30 s for both.
func ListenAndDrain(name, addr string, handler http.Handler, drain func(context.Context) error) {
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("%s listening on %s", name, addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %v; draining", sig)
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := drain(ctx); err != nil {
		log.Printf("%s shutdown: %v", name, err)
	}
	log.Print("drained; exiting")
}
