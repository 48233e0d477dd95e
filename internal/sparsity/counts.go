package sparsity

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counts is a per-row or per-column nonzero-count vector. It is immutable
// once built — nothing writes an entry afterwards — so one vector can sit in
// any number of descriptors, be shared by concurrent compilations, and carry
// what MNC.Mul derives from it (its summary) and what Memo keys it by (its
// content hash), each computed at most once per vector and published
// atomically. A nil *Counts is "no sketch" (metadata-only estimation).
type Counts struct {
	v    []int
	sum  atomic.Pointer[summary]
	hash atomic.Uint64 // content hash + 1 once computed; 0 = not yet
}

// NewCounts wraps a count vector. The slice is owned by the result from here
// on: the caller must not write to it again. A nil slice yields nil.
func NewCounts(v []int) *Counts {
	if v == nil {
		return nil
	}
	return &Counts{v: v}
}

// Len returns the number of entries (0 for nil).
func (c *Counts) Len() int {
	if c == nil {
		return 0
	}
	return len(c.v)
}

// At returns entry i.
func (c *Counts) At(i int) int { return c.v[i] }

// contentHash hashes the entries (and the length). Equal vectors hash equal;
// the converse is checked entry by entry wherever it matters.
func (c *Counts) contentHash() uint64 {
	if h := c.hash.Load(); h != 0 {
		return h - 1
	}
	// Four independent multiply-xor lanes: a single FNV-style chain is bound
	// by the multiplier's latency, and this runs once over every vector a
	// compilation produces.
	const prime = 0x100000001b3
	h0, h1, h2, h3 := uint64(0xcbf29ce484222325), uint64(0x84222325cbf29ce4), uint64(0x9e3779b97f4a7c15), uint64(len(c.v))
	v := c.v
	for len(v) >= 4 {
		h0 = (h0 ^ uint64(v[0])) * prime
		h1 = (h1 ^ uint64(v[1])) * prime
		h2 = (h2 ^ uint64(v[2])) * prime
		h3 = (h3 ^ uint64(v[3])) * prime
		v = v[4:]
	}
	for _, x := range v {
		h0 = (h0 ^ uint64(x)) * prime
	}
	h := h0
	for _, l := range [...]uint64{h1, h2, h3} {
		h = (h ^ l ^ l>>29) * prime
	}
	if h == math.MaxUint64 {
		h = 0 // keep h+1 != 0
	}
	c.hash.Store(h + 1)
	return h
}

// summary is everything MNC.Mul needs of an outer count vector beyond its
// entries: the distinct values with a per-entry class index, so per-entry
// work (a bucket key, a propagated count) is done once per distinct value
// and scattered; and the geometric buckets of the nonzero entries.
type summary struct {
	// vals lists the distinct entry values in order of first appearance;
	// class[i] is the index into vals of entry i.
	vals  []int
	class []int32
	// buckets quantizes the nonzero entries into geometric buckets (ratio
	// ~1.1, in key order) so the double sum in Mul is O(buckets²) instead of
	// O(rows·cols).
	buckets []bucket
}

// bucket groups count-vector entries with similar values: n entries whose
// geometric-bucket representative is value.
type bucket struct {
	value float64
	n     float64
}

// summary returns the vector's summary, computing it on first use. Racing
// first uses each compute the same content and either pointer may win.
func (c *Counts) summary() *summary {
	if s := c.sum.Load(); s != nil {
		return s
	}
	s := &summary{}
	s.vals, s.class = classify(c.v)
	s.buckets = bucketClasses(s.vals, s.class)
	c.sum.Store(s)
	return s
}

// classify assigns each entry the index of its value among the distinct
// values, numbered in order of first appearance.
func classify(v []int) (vals []int, class []int32) {
	class = make([]int32, len(v))
	index := map[int]int32{}
	prev, prevClass := 0, int32(-1)
	for i, x := range v {
		// Runs of one value (a dense intermediate is a single run) skip the
		// probe.
		if prevClass < 0 || x != prev {
			ci, ok := index[x]
			if !ok {
				ci = int32(len(vals))
				index[x] = ci
				vals = append(vals, x)
			}
			prev, prevClass = x, ci
		}
		class[i] = prevClass
	}
	return vals, class
}

// bucketClasses builds the geometric buckets of a classified vector. The
// bucket key is computed once per distinct value; the running mean that
// centres each bucket's representative is still accumulated entry by entry
// in positional order, because it is a float recurrence whose result depends
// on that order.
func bucketClasses(vals []int, class []int32) []bucket {
	// slot[ci] is the position in acc of class ci's bucket, -1 for zero.
	slot := make([]int, len(vals))
	fvals := make([]float64, len(vals))
	byKey := map[int]int{}
	var keys []int
	for ci, c := range vals {
		slot[ci] = -1
		if c == 0 {
			continue
		}
		fvals[ci] = float64(c)
		key := int(math.Round(math.Log(fvals[ci]) / math.Log(1.1)))
		j, ok := byKey[key]
		if !ok {
			j = len(keys)
			byKey[key] = j
			keys = append(keys, key)
		}
		slot[ci] = j
	}
	acc := make([]bucket, len(keys))
	for _, ci := range class {
		if j := slot[ci]; j >= 0 {
			// From the zero bucket this yields {c, 1} exactly.
			b := &acc[j]
			b.value = (b.value*b.n + fvals[ci]) / (b.n + 1)
			b.n++
		}
	}
	// Emit in key order: it fixes the float-summation order downstream (the
	// fault tests require byte-identical replays).
	sort.Ints(keys)
	out := make([]bucket, len(keys))
	for i, k := range keys {
		out[i] = acc[byKey[k]]
	}
	return out
}
