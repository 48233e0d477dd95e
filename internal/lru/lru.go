// Package lru is the repository's one least-recently-used cache. The
// serving stack's bounded maps — compiled plans, cross-query intermediates,
// the idempotency replay window, the sparsity-signature memo, and the
// gateway's per-tenant stats and quota buckets — all hold one of these and
// keep only their own policy (coalescing, namespacing, pinning) beside it.
package lru

import "container/list"

// Cache is a cost-bounded LRU map. Every entry carries a cost — 1 for an
// entry-counted cache, modelled bytes for a byte-budgeted one — and an
// insert that pushes the summed cost past the capacity evicts from the
// least-recently-used end until it fits. A Cache is not safe for concurrent
// use: every owner already holds a mutex for the state it keeps beside it.
type Cache[K comparable, V any] struct {
	cap, cost int64
	ll        *list.List // front = most recent; elements hold *entry[K, V]
	items     map[K]*list.Element
	pinned    func(V) bool
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache bounded at capacity cost units.
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: map[K]*list.Element{}}
}

// Pin exempts entries whose value satisfies pinned from eviction: they
// still count toward the cost, so the cache may run over capacity by the
// pinned entries' cost until they unpin.
func (c *Cache[K, V]) Pin(pinned func(V) bool) { c.pinned = pinned }

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	el, ok := c.items[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key at the given cost as the most recently used
// entry, then evicts until the summed cost fits the capacity. Re-putting a
// resident key replaces its value and re-costs it. An entry costing more
// than the whole capacity is rejected (false) and changes nothing.
func (c *Cache[K, V]) Put(key K, val V, cost int64) bool {
	if cost > c.cap {
		return false
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key, val, cost})
		c.cost += cost
	}
	for el := c.ll.Back(); el != nil && c.cost > c.cap; {
		prev := el.Prev()
		if c.pinned == nil || !c.pinned(el.Value.(*entry[K, V]).val) {
			c.remove(el)
		}
		el = prev
	}
	return true
}

// Each visits every entry from most to least recently used and removes
// those for which drop returns true.
func (c *Cache[K, V]) Each(drop func(key K, val V) bool) {
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); drop(e.key, e.val) {
			c.remove(el)
		}
		el = next
	}
}

func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.cost -= e.cost
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Cost returns the summed cost of the resident entries.
func (c *Cache[K, V]) Cost() int64 { return c.cost }
