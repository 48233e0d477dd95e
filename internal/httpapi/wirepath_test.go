package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"remac/internal/data"
	"remac/internal/engine"
	"remac/internal/serve"
)

// The wire ships {rows, cols, frobenius_norm} per value and a result hash,
// never a cell, and the handler releases the result once the reply is
// written: what a shard keeps of a served query — in its idempotency window
// too, which every gateway-stamped request enters — is the summaries.

// The queries are DFP, whose result carries an n×n inverse Hessian worth
// counting: red2 materialises 2000×500, so H is 500×500 (2 MB).
const (
	wireDataset = "red2"
	wireN       = 500
)

func wireBody(dataset string) string {
	return `{"algorithm":"DFP","dataset":"` + dataset + `","iterations":2}`
}

func wireMux(t *testing.T, workers int) (*serve.Server, http.Handler) {
	t.Helper()
	srv := serve.New(serve.Config{Workers: workers})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, NewServeMux(srv, NewQueryBuilder(engine.RecoveryPolicy{}), ServeHandlerConfig{})
}

// postKeyed is one POST /query under an idempotency key, decoded; safe on any
// goroutine of the test.
func postKeyed(t testing.TB, mux http.Handler, dataset, key string) QueryResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(wireBody(dataset)))
	req.Header.Set(IdempotencyKeyHeader, key)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Errorf("POST /query (key %s) = %d, %v: %s", key, rec.Code, err, rec.Body)
	}
	return resp
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC() // the second empties what the first left in the hand-over pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWirePathHoldsNoCells: every request carries its own key, as a gateway's
// do, so every result enters the replay window. The heap after 200 of them is
// the heap after 20 — the window holds summaries, not 180 more H — and a
// replay of an entry released long ago is the reply the first POST got.
func TestWirePathHoldsNoCells(t *testing.T) {
	queries := 200
	if raceDetector {
		queries = 60 // forty H pinned would still be 80 MB; instrumented kernels are slow
	}
	srv, mux := wireMux(t, 1)
	first := postKeyed(t, mux, wireDataset, "k-0")
	if first.Replayed || first.ResultHash == "" || first.Values["H"].Rows != wireN || !(first.Values["H"].Frobenius > 0) {
		t.Fatalf("first reply: %+v", first)
	}
	// Every run but the first writes where an earlier one's result was: the
	// answer must not depend on it.
	sameAnswer := func(i int) {
		if r := postKeyed(t, mux, wireDataset, fmt.Sprintf("k-%d", i)); r.ResultHash != first.ResultHash || r.Replayed {
			t.Fatalf("query %d answers %s (replayed %v), the first %s", i, r.ResultHash, r.Replayed, first.ResultHash)
		}
	}
	for i := 1; i < 20; i++ {
		sameAnswer(i)
	}
	at20 := heapAfterGC()
	for i := 20; i < queries; i++ {
		sameAnswer(i)
	}
	atEnd := heapAfterGC()
	if n := srv.Metrics().IdemEntries; n != queries {
		t.Fatalf("%d entries in the replay window, want %d", n, queries)
	}
	const slack = 2 * wireN * wireN * 8 // two H: the entries' summaries and keys fit many times over
	t.Logf("heap after 20 queries %.1f MB, after %d %.1f MB", float64(at20)/1e6, queries, float64(atEnd)/1e6)
	if atEnd > at20+slack {
		t.Errorf("heap grew %.1f MB over %d keyed queries: the replay window pins cells", float64(atEnd-at20)/1e6, queries-20)
	}

	execs := srv.Metrics().Executions
	again := postKeyed(t, mux, wireDataset, "k-0")
	if !again.Replayed || srv.Metrics().Executions != execs {
		t.Fatalf("resubmitting k-0: replayed %v after %d more executions", again.Replayed, srv.Metrics().Executions-execs)
	}
	if again.ResultHash != first.ResultHash || !reflect.DeepEqual(again.Values, first.Values) {
		t.Errorf("replay of a released entry answers %s %+v, the original %s %+v",
			again.ResultHash, again.Values, first.ResultHash, first.Values)
	}
}

// TestWirePathAllocBudget bounds what one wire query allocates in steady
// state, in units of one n×n buffer: the run writes into the buffers the
// query before it released, the fused t(A) is the one the input matrix
// carries, the summary pass allocates nothing proportional to a matrix, and
// the reply is a few hundred bytes: the other A-sized values, the plan lookup
// and the JSON came to 0.044 buffers when the bound was set. The bound, 0.075,
// adds to that one n×n allocated anew in the window: a buffer handed over on
// one processor can sit in the private slot of that processor's sync.Pool,
// out of reach of a query running on another, until every processor's slot
// holds one — which the warm-up queries see to, but not always all of it on
// many processors. Before the input carried its transpose every query made
// its own (0.084); before results were released every query allocated its H
// anew (≥ 1). The dataset is TestExecAllocBudget's shape: dense and with few
// rows, so that A-sized values are small change beside an n×n one. Bytes, not
// time — and no collection inside the window, which would empty the hand-over
// pools at a moment of its own choosing: what is pinned is that a query finds
// the buffers the one before it released.
func TestWirePathAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("under the race detector sync.Pool drops a quarter of what a run hands over")
	}
	const n, name = 800, "wire-alloc-budget"
	data.Specs[name] = data.Spec{Name: name, VRows: 58_400_000, VCols: 8_700, Sparsity: 0.6, ScaleRows: 32, ScaleCols: n}
	defer delete(data.Specs, name)
	_, mux := wireMux(t, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 64; i++ {
		postKeyed(t, mux, name, fmt.Sprintf("warm-%d", i))
	}
	const queries = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		postKeyed(t, mux, name, fmt.Sprintf("k-%d", i))
	}
	runtime.ReadMemStats(&after)
	buffers := float64(after.TotalAlloc-before.TotalAlloc) / queries / (n * n * 8)
	t.Logf("%.3f n×n buffers per wire query", buffers)
	if buffers > 0.075 {
		t.Errorf("a wire query allocates %.3f n×n buffers in steady state, budget 0.075", buffers)
	}
}

// TestReleaseRacesReplay: duplicates of one key arrive together, so one
// handler leads, the others coalesce onto it or replay it, and every one of
// them releases the same result while the others render theirs. Under -race
// this is the check that rendering reads nothing a Release writes; in any
// mode, that all of them answer alike and the plan ran once per key.
func TestReleaseRacesReplay(t *testing.T) {
	srv, mux := wireMux(t, 2)
	const keys, duplicates = 8, 3
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("dup-%d", k)
		replies := make([]QueryResponse, duplicates)
		var wg sync.WaitGroup
		for d := range replies {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				replies[d] = postKeyed(t, mux, wireDataset, key)
			}(d)
		}
		wg.Wait()
		fresh := 0
		for d, r := range replies {
			if !r.Replayed {
				fresh++
			}
			if r.ResultHash != replies[0].ResultHash || !reflect.DeepEqual(r.Values, replies[0].Values) {
				t.Errorf("%s #%d answers %s %+v, #0 %s %+v", key, d, r.ResultHash, r.Values, replies[0].ResultHash, replies[0].Values)
			}
		}
		if fresh != 1 {
			t.Errorf("%s: %d of %d replies are not replays, want the leader's alone", key, fresh, duplicates)
		}
	}
	if got := srv.Metrics().Executions; got != keys {
		t.Errorf("%d executions for %d keys", got, keys)
	}
}

var responseSink QueryResponse

// BenchmarkBuildResponse renders a served DFP result: a map copy, whatever
// the size of the values (it used to walk every cell for the norms).
func BenchmarkBuildResponse(b *testing.B) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	var req QueryRequest
	if err := json.Unmarshal([]byte(wireBody(wireDataset)), &req); err != nil {
		b.Fatal(err)
	}
	q, err := NewQueryBuilder(engine.RecoveryPolicy{}).Build(req)
	if err != nil {
		b.Fatal(err)
	}
	res, err := srv.Do(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		responseSink = BuildResponse(res)
	}
}
