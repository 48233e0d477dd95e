package gateway

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// The goldens below were recorded at the commit before the SplitMix64
// finalizer moved into fault.Mix64. Ring placement and chaostest.NetFault
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
