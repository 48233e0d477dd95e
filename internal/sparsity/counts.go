package sparsity

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"remac/internal/fault"
)

// Counts is a per-row or per-column nonzero-count vector in class form: a
// class index assigning every entry a class, and one value per class — entry
// i is vals[idx.class[i]]. Values may repeat across classes. The index is
// immutable and shared: a vector an estimator derives from another (a
// product's, a rescaled one, a sum over a shared index) keeps its operand's
// index and computes only its own values, one per class, so it costs
// O(classes) however long the vector is.
//
// A Counts is immutable once built — nothing writes an entry afterwards — so
// one vector can sit in any number of descriptors, be shared by concurrent
// compilations, and carry what MNC.Mul derives from it (its buckets) and what
// Memo keys it by (its content hash), each computed at most once per vector
// and published atomically. A nil *Counts is "no sketch" (metadata-only
// estimation).
type Counts struct {
	// idx and vals are set when the vector is built in class form. A
	// measured vector (NewCounts) has neither: src holds its entries until
	// first use classifies them into form, the vector every read goes to.
	idx  *classIndex
	vals []int
	src  []int
	form atomic.Pointer[Counts]
	sum  atomic.Pointer[[]bucket]
	hash atomic.Uint64 // content hash + 1 once computed; 0 = not yet
}

// classIndex is the class of every entry of a vector, built once by
// classifying a measured vector and shared read-only by every vector derived
// from it.
type classIndex struct {
	class []int32
	size  []int // size[ci] is the number of entries in class ci
	// weight[ci] is the sum of the hash weights of class ci's positions (see
	// contentHash), computed on the first hash over the index.
	weight atomic.Pointer[[]uint64]
}

// weights returns the per-class hash weights. Racing first uses compute the
// same content and either may win.
func (x *classIndex) weights() []uint64 {
	if w := x.weight.Load(); w != nil {
		return *w
	}
	w := make([]uint64, len(x.size))
	for i, ci := range x.class {
		w[ci] += positionWeight(i)
	}
	x.weight.Store(&w)
	return w
}

// NewCounts wraps a measured count vector, classified on first use. The
// slice is owned by the result from here on: the caller must not write to it
// again. A nil slice yields nil.
func NewCounts(v []int) *Counts {
	if v == nil {
		return nil
	}
	return &Counts{src: v}
}

// derive builds the vector over c's class index with one value per class.
func (c *Counts) derive(vals []int) *Counts { return &Counts{idx: c.idx, vals: vals} }

// Len returns the number of entries (0 for nil).
func (c *Counts) Len() int {
	if c == nil {
		return 0
	}
	if c.idx == nil {
		return len(c.src)
	}
	return len(c.idx.class)
}

// At returns entry i.
func (c *Counts) At(i int) int {
	c = c.classified()
	return c.vals[c.idx.class[i]]
}

// classified returns c in class form: c itself, or the vector a measured c
// was classified into on its first use. Racing first uses agree on one
// result, so vectors derived from either share its index.
func (c *Counts) classified() *Counts {
	if c.idx != nil {
		return c
	}
	if f := c.form.Load(); f != nil {
		return f
	}
	c.form.CompareAndSwap(nil, classify(c.src))
	return c.form.Load()
}

// classify assigns each entry the class of its value among the distinct
// values, numbered in order of first appearance.
func classify(v []int) *Counts {
	class := make([]int32, len(v))
	var vals, size []int
	// The largest entry, read unsigned so that a negative one is too large.
	hi := uint(0)
	for _, x := range v {
		hi = max(hi, uint(x))
	}
	if hi <= uint(4*len(v)+256) {
		// A measured count is bounded by a dimension near the vector's
		// length: a table indexed by value (class+1, 0 for unseen) finds
		// the class without hashing.
		seen := make([]int32, hi+1)
		for i, x := range v {
			ci := seen[x] - 1
			if ci < 0 {
				ci = int32(len(vals))
				seen[x] = ci + 1
				vals, size = append(vals, x), append(size, 0)
			}
			class[i] = ci
			size[ci]++
		}
	} else {
		index := map[int]int32{}
		prev, prevClass := 0, int32(-1)
		for i, x := range v {
			// Runs of one value (a dense intermediate is a single run) skip
			// the probe.
			if prevClass < 0 || x != prev {
				ci, ok := index[x]
				if !ok {
					ci = int32(len(vals))
					index[x] = ci
					vals, size = append(vals, x), append(size, 0)
				}
				prev, prevClass = x, ci
			}
			class[i] = prevClass
			size[prevClass]++
		}
	}
	return &Counts{idx: &classIndex{class: class, size: size}, vals: vals}
}

// positionWeight is the hash weight of entry i: position i of the seeded
// stream fault.Mix64 draws from.
func positionWeight(i int) uint64 { return fault.Mix64(uint64(i+1) * 0x9e3779b97f4a7c15) }

// contentHash hashes the entries (and the length): Σᵢ entryᵢ·weightᵢ mod
// 2⁶⁴, which a vector evaluates per class as Σ vals[ci]·weight[ci] — equal
// for equal contents whatever index they are held over, without reading the
// entries. The converse is checked by sameContent wherever it matters.
func (c *Counts) contentHash() uint64 {
	if h := c.hash.Load(); h != 0 {
		return h - 1
	}
	f := c.classified()
	h := uint64(len(f.idx.class)) * 0x9e3779b97f4a7c15
	for ci, w := range f.idx.weights() {
		h += uint64(f.vals[ci]) * w
	}
	h = fault.Mix64(h)
	if h == math.MaxUint64 {
		h = 0 // keep h+1 != 0
	}
	c.hash.Store(h + 1)
	return h
}

// sameContent reports whether c and d hold equal entries: by their values
// alone over one index (or two single-class ones of one length, a dense
// operand's, which group the entries alike), otherwise entry by entry
// through both indexes.
func (c *Counts) sameContent(d *Counts) bool {
	c, d = c.classified(), d.classified()
	if c.idx == d.idx || len(c.vals) == 1 && len(d.vals) == 1 && c.Len() == d.Len() {
		return slices.Equal(c.vals, d.vals)
	}
	if len(c.idx.class) != len(d.idx.class) {
		return false
	}
	for i, ci := range c.idx.class {
		if c.vals[ci] != d.vals[d.idx.class[i]] {
			return false
		}
	}
	return true
}

// zipCounts applies f to the entries of two equally long vectors pairwise
// and returns the result with the sum of its entries. Over a shared index,
// or with one operand a single class (a dense one), f runs once per class
// and the result keeps the index; otherwise it runs entry by entry into a
// measured vector, classified on first use.
func zipCounts(ca, cb *Counts, f func(x, y int) int) (*Counts, int) {
	a, b := ca.classified(), cb.classified()
	total := 0
	if over := a; a.idx == b.idx || len(a.vals) == 1 || len(b.vals) == 1 {
		if len(a.vals) == 1 && a.idx != b.idx {
			over = b
		}
		vals := make([]int, len(over.vals))
		for ci := range vals {
			x, y := a.vals[0], b.vals[0]
			if len(a.vals) > 1 {
				x = a.vals[ci]
			}
			if len(b.vals) > 1 {
				y = b.vals[ci]
			}
			vals[ci] = f(x, y)
			total += vals[ci] * over.idx.size[ci]
		}
		return over.derive(vals), total
	}
	out := make([]int, len(a.idx.class))
	for i, ci := range a.idx.class {
		out[i] = f(a.vals[ci], b.vals[b.idx.class[i]])
		total += out[i]
	}
	return NewCounts(out), total
}

// bucket groups count-vector entries with similar values: n entries whose
// geometric-bucket representative is value.
type bucket struct {
	value float64
	n     float64
}

// summary returns the geometric buckets of the nonzero entries of a vector
// in class form (ratio ~1.1, in key order), computing them on first use, so
// the double sum in Mul is O(buckets²) instead of O(rows·cols). Racing first
// uses compute the same content and either may win.
func (c *Counts) summary() []bucket {
	if s := c.sum.Load(); s != nil {
		return *s
	}
	b := bucketClasses(c.idx, c.vals)
	c.sum.Store(&b)
	return b
}

// bucketClasses builds the geometric buckets of a vector in class form. The
// bucket key is computed once per class. Each bucket's representative is a
// running mean over its entries in positional order, value = (value·n + c) /
// (n + 1), a float recurrence whose result depends on that order — unless
// all of a bucket's entries hold one value c: then every step yields exactly
// c (c·n, c·n + c and c·(n+1)/(n+1) are exact while c·(n+1) < 2⁵³), so the
// bucket is {c, n} in closed form. Only buckets that mix values walk the
// entries.
func bucketClasses(idx *classIndex, vals []int) []bucket {
	// slot[ci] is the position in acc of class ci's bucket, -1 for zero.
	slot := make([]int, len(vals))
	byKey := map[int]int{}
	var keys []int
	var acc []bucket
	var mixed []bool
	for ci, c := range vals {
		slot[ci] = -1
		if c == 0 {
			continue
		}
		v := float64(c)
		key := int(math.Round(math.Log(v) / math.Log(1.1)))
		j, ok := byKey[key]
		if !ok {
			j = len(keys)
			byKey[key] = j
			keys = append(keys, key)
			acc = append(acc, bucket{value: v})
			mixed = append(mixed, false)
		} else if acc[j].value != v {
			mixed[j] = true
		}
		acc[j].n += float64(idx.size[ci])
		slot[ci] = j
	}
	walk := false
	for j, b := range acc {
		mixed[j] = mixed[j] || b.value*(b.n+1) >= 1<<53
		if mixed[j] {
			acc[j], walk = bucket{}, true
		}
	}
	if walk {
		for ci, j := range slot {
			if j >= 0 && !mixed[j] {
				slot[ci] = -1
			}
		}
		for _, ci := range idx.class {
			if j := slot[ci]; j >= 0 {
				// From the zero bucket this yields {c, 1} exactly.
				b := &acc[j]
				b.value = (float64(b.value*b.n) + float64(vals[ci])) / (b.n + 1)
				b.n++
			}
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
