package lru

import (
	"reflect"
	"strings"
	"testing"
)

// resident lists the cache's keys from most to least recently used and
// checks the bookkeeping invariant on the way: Cost equals the sum of the
// resident entries' costs and Len their count.
func resident(t *testing.T, c *Cache[string, int64]) []string {
	t.Helper()
	keys := []string{}
	var sum int64
	c.Each(func(k string, cost int64) bool {
		keys = append(keys, k)
		sum += cost
		return false
	})
	if c.Cost() != sum || c.Len() != len(keys) {
		t.Fatalf("cost %d / len %d, residents sum to %d over %d entries", c.Cost(), c.Len(), sum, len(keys))
	}
	return keys
}

// TestCache drives the cache through its contract one scripted step at a
// time. Values double as the entry's cost so resident() can re-add them.
func TestCache(t *testing.T) {
	type step struct {
		op   string // put | get | drop
		key  string // key, or prefix for drop
		cost int64
		ok   bool     // expected result of put / get
		want []string // residents afterwards, most recent first
	}
	cases := []struct {
		name  string
		cap   int64
		steps []step
	}{
		{"count cap evicts the least recently used", 2, []step{
			{"put", "a", 1, true, []string{"a"}},
			{"put", "b", 1, true, []string{"b", "a"}},
			{"get", "a", 0, true, []string{"a", "b"}},
			{"put", "c", 1, true, []string{"c", "a"}},
			{"get", "b", 0, false, []string{"c", "a"}},
		}},
		{"byte cap evicts until the new entry fits", 10, []step{
			{"put", "a", 4, true, []string{"a"}},
			{"put", "b", 4, true, []string{"b", "a"}},
			{"put", "c", 7, true, []string{"c"}},
			{"put", "d", 3, true, []string{"d", "c"}},
		}},
		{"refresh re-costs and touches", 10, []step{
			{"put", "a", 6, true, []string{"a"}},
			{"put", "b", 2, true, []string{"b", "a"}},
			{"put", "a", 2, true, []string{"a", "b"}},
			{"put", "c", 6, true, []string{"c", "a", "b"}},
			{"put", "b", 8, true, []string{"b"}},
		}},
		{"oversized entry rejected, residents untouched", 5, []step{
			{"put", "a", 3, true, []string{"a"}},
			{"put", "big", 6, false, []string{"a"}},
			{"put", "a", 6, false, []string{"a"}},
			{"get", "a", 0, true, []string{"a"}},
		}},
		{"prefix delete keeps cost the sum of residents", 100, []step{
			{"put", "x@1|p", 10, true, nil},
			{"put", "y@1|p", 20, true, nil},
			{"put", "x@1|q", 30, true, nil},
			{"put", "xy@1|p", 5, true, []string{"xy@1|p", "x@1|q", "y@1|p", "x@1|p"}},
			{"drop", "x@", 0, false, []string{"xy@1|p", "y@1|p"}},
			{"drop", "none@", 0, false, []string{"xy@1|p", "y@1|p"}},
			{"put", "x@2|p", 75, true, []string{"x@2|p", "xy@1|p", "y@1|p"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int64](tc.cap)
			for i, s := range tc.steps {
				switch s.op {
				case "put":
					if got := c.Put(s.key, s.cost, s.cost); got != s.ok {
						t.Fatalf("step %d: Put(%q, cost %d) = %v, want %v", i, s.key, s.cost, got, s.ok)
					}
				case "get":
					if _, got := c.Get(s.key); got != s.ok {
						t.Fatalf("step %d: Get(%q) ok = %v, want %v", i, s.key, got, s.ok)
					}
				case "drop":
					c.Each(func(k string, _ int64) bool { return strings.HasPrefix(k, s.key) })
				}
				got := resident(t, c)
				if s.want != nil && !reflect.DeepEqual(got, s.want) {
					t.Fatalf("step %d (%s %q): residents %v, want %v", i, s.op, s.key, got, s.want)
				}
				if c.Cost() > tc.cap {
					t.Fatalf("step %d: cost %d over capacity %d", i, c.Cost(), tc.cap)
				}
			}
		})
	}
}

// TestPinnedEntriesSurviveEviction: pinned entries are skipped by eviction
// (the cache runs over capacity rather than drop them) and become ordinary
// victims once they unpin.
func TestPinnedEntriesSurviveEviction(t *testing.T) {
	pinned := map[string]bool{"a": true, "b": true}
	c := New[string, string](2)
	c.Pin(func(v string) bool { return pinned[v] })
	for _, k := range []string{"a", "b", "c", "d"} {
		c.Put(k, k, 1)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("unpinned c survived while the cache was over capacity")
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("pinned %s was evicted", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len %d with two pinned entries at capacity 2 (d cannot stay)", c.Len())
	}
	delete(pinned, "a")
	delete(pinned, "b")
	c.Put("e", "e", 1)
	if c.Len() != 2 || c.Cost() != 2 {
		t.Fatalf("len %d cost %d after unpinning, want 2 / 2", c.Len(), c.Cost())
	}
	if _, ok := c.Get("e"); !ok {
		t.Fatal("fresh entry evicted instead of an unpinned older one")
	}
}
