package gateway

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"remac/internal/httpapi"
	"remac/internal/serve"
)

// The goldens below were recorded at the commit before the SplitMix64
// finalizer moved into fault.Mix64. Ring placement and NetFault
// rolls are what the chaos storms replay by seed, so a refactor of the mixer
// may never move them.

func TestRingOrderGolden(t *testing.T) {
	keys := []string{"cri1@0", "cri2@0", "red1@3", "zipf-1.4@1", "script:00deadbeef", "", "key-17"}
	cases := []struct {
		shards, vnodes int
		seed           uint64
		want           [][]int // preference order per key, in keys order
	}{
		{4, 64, 42, [][]int{{0, 2, 3, 1}, {0, 2, 1, 3}, {3, 0, 1, 2}, {1, 2, 3, 0}, {0, 1, 3, 2}, {1, 2, 3, 0}, {0, 3, 2, 1}}},
		{3, 16, 0xC0FFEE5EED, [][]int{{1, 0, 2}, {1, 2, 0}, {0, 2, 1}, {0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {0, 1, 2}}},
		{5, 64, 0, [][]int{{2, 4, 0, 1, 3}, {4, 1, 3, 0, 2}, {3, 2, 4, 1, 0}, {3, 1, 4, 0, 2}, {1, 3, 4, 2, 0}, {4, 0, 1, 2, 3}, {1, 4, 0, 2, 3}}},
	}
	for _, tc := range cases {
		r := newRing(tc.shards, tc.vnodes, tc.seed)
		for i, key := range keys {
			if got := r.order(key); !reflect.DeepEqual(got, tc.want[i]) {
				t.Errorf("ring(%d shards, %d vnodes, seed %#x).order(%q) = %v, want %v",
					tc.shards, tc.vnodes, tc.seed, key, got, tc.want[i])
			}
		}
	}
}

// jsonKeys returns the sorted top-level JSON keys of v's zero-ish encoding.
func jsonKeys(t *testing.T, v interface{}) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatsKeysGolden pins the /stats wire contract of the gateway tier:
// dashboards and benchmark/ read these keys.
func TestStatsKeysGolden(t *testing.T) {
	cases := []struct {
		name string
		v    interface{}
		want []string
	}{
		{"Stats", Stats{}, []string{"audit_dropped", "audit_written", "deadline_exceeded", "ejections",
			"failed_over", "failover_exhausted", "invalidations", "invalidations_lagged", "merged",
			"overload_rejected", "per_shard", "quota_rejected", "rejoins", "respawns", "routed", "shards",
			"spilled", "tenants"}},
		{"TenantStats", TenantStats{}, []string{"completed", "failed", "flop", "latency_p50_sec",
			"latency_p95_sec", "queries", "quota_rejected"}},
		{"WireStats", WireStats{}, []string{"attempts", "budget_exhausted", "failures", "replays", "retries"}},
	}
	for _, tc := range cases {
		if got := jsonKeys(t, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s JSON keys = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// fillDistinct sets every field of the struct v — embedded structs, and the
// elements of maps and slices, included — to a non-zero value, a different
// one per field where the kind has more than one. A kind it has no value
// for fails the test, so a new field cannot slip past it unfilled.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*n++
		switch f.Kind() {
		case reflect.Struct:
			fillDistinct(t, f, n)
		case reflect.Int:
			f.SetInt(int64(*n))
		case reflect.Float64:
			f.SetFloat(float64(*n) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", *n))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			fillElem(t, f.Index(0), n)
		case reflect.Map:
			f.Set(reflect.MakeMap(f.Type()))
			elem := reflect.New(f.Type().Elem()).Elem()
			fillElem(t, elem, n)
			f.SetMapIndex(reflect.ValueOf(fmt.Sprintf("k%d", *n)), elem)
		default:
			t.Fatalf("fillDistinct: no value for field %s of kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
}

func fillElem(t *testing.T, e reflect.Value, n *int) {
	t.Helper()
	switch e.Kind() {
	case reflect.Struct:
		fillDistinct(t, e, n)
	case reflect.String:
		e.SetString(fmt.Sprintf("e%d", *n))
	default:
		t.Fatalf("fillDistinct: no value for an element of kind %s", e.Kind())
	}
}

// TestQueryResponseKeysGolden pins the POST /query reply's key set, recorded
// before serve.Record carried the wire fields: a fully populated response
// has exactly these keys.
func TestQueryResponseKeysGolden(t *testing.T) {
	var resp httpapi.QueryResponse
	n := 0
	fillDistinct(t, reflect.ValueOf(&resp).Elem(), &n)
	want := []string{"attempts", "coded_recoveries", "compile_sec", "compute_sec", "decode_sec", "encode_flop",
		"failover", "flop", "intermediate_hits", "intermediate_misses", "iterations", "plan_cache_hit", "replayed",
		"request_id", "result_hash", "selected_keys", "shard", "shared_hits", "shared_produced", "simulated_sec",
		"spilled", "transmit_sec", "values", "wall_sec"}
	if got := jsonKeys(t, resp); !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryResponse JSON keys = %q, want %q", got, want)
	}
}

// TestWireRecordRoundTrip: every field of serve.Record, each set to its own
// value, comes back from BuildResponse → WriteJSON → resultFromResponse as it
// went in, with the hash and the summaries (a non-finite norm among them). A
// field added to the record crosses the wire or fails here.
func TestWireRecordRoundTrip(t *testing.T) {
	in := &serve.QueryResult{
		ResultHash: 0x0123456789abcdef,
		Summaries: map[string]serve.ValueSummary{
			"H": {Rows: 3, Cols: 3, Frobenius: 1.5},
			"x": {Rows: 3, Cols: 1, Frobenius: math.Inf(1)},
		},
	}
	n := 0
	fillDistinct(t, reflect.ValueOf(&in.Record).Elem(), &n)
	rec := httptest.NewRecorder()
	httpapi.WriteJSON(rec, "rid", httpapi.BuildResponse(in))
	var qr httpapi.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	out := resultFromResponse(qr)
	if !reflect.DeepEqual(out.Record, in.Record) {
		t.Errorf("record crossed the wire as\n%+v\nwant\n%+v", out.Record, in.Record)
	}
	if out.ResultHash != in.ResultHash || !reflect.DeepEqual(out.Summaries, in.Summaries) {
		t.Errorf("hash %016x, summaries %+v; want %016x, %+v", out.ResultHash, out.Summaries, in.ResultHash, in.Summaries)
	}
}
