package resilience

import "container/list"

// LRU is the bounded map behind the admission-guarded caches: a
// least-recently-used cache whose eviction victim follows one rule, also
// the victim a Sketch's Admit must beat.
//
// Plain (segmented == false) it is an ordinary LRU. Segmented, it is the
// main region of W-TinyLFU (Einziger, Friedman & Manes, 2017): an entry
// starts in probation and moves to the protected segment on its first hit,
// and the victim is the least recently used probation entry, else the
// least recently used protected one. A key falsely admitted through a
// sketch collision therefore displaces at most one protected entry: it
// waits in probation, where the next candidates and any returning hot key
// compete with it instead of with the rest of the working set.
//
// LRU is not safe for concurrent use; callers hold their own lock.
type LRU[K comparable, V any] struct {
	cap       int
	segmented bool
	items     map[K]*lruItem[K, V]
	probation list.List // not hit since insertion (segmented only)
	protected list.List // hit since insertion; every entry when plain
}

// lruItem is one entry; el is its element in the list of its segment,
// whose Value points back at the item.
type lruItem[K comparable, V any] struct {
	key       K
	val       V
	protected bool
	el        *list.Element
}

// NewLRU returns an empty cache holding up to capacity entries (at least
// one), segmented as described on LRU when segmented is true.
func NewLRU[K comparable, V any](capacity int, segmented bool) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{cap: capacity, segmented: segmented, items: make(map[K]*lruItem[K, V], capacity)}
}

// Get returns the value for k and marks it most recently used; in a
// segmented cache a hit also protects the entry.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	it, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(it)
	return it.val, true
}

// touch promotes it to the front of the protected segment.
func (c *LRU[K, V]) touch(it *lruItem[K, V]) {
	if it.protected {
		c.protected.MoveToFront(it.el)
		return
	}
	c.probation.Remove(it.el)
	it.protected = true
	it.el = c.protected.PushFront(it)
}

// victim is the eviction rule: the probation segment's least recently used
// entry, else the protected segment's.
func (c *LRU[K, V]) victim() *lruItem[K, V] {
	el := c.probation.Back()
	if el == nil {
		el = c.protected.Back()
	}
	return el.Value.(*lruItem[K, V])
}

// Add inserts k, or refreshes its value and promotes it like a hit. A new
// key that finds the cache full must displace the victim: admit, when
// non-nil, is asked first, and a refusal leaves the cache unchanged
// (added is false); otherwise the victim is evicted (evicted is true).
func (c *LRU[K, V]) Add(k K, v V, admit func(candidate, victim K) bool) (added, evicted bool) {
	if it, ok := c.items[k]; ok {
		it.val = v
		c.touch(it)
		return true, false
	}
	if len(c.items) >= c.cap {
		victim := c.victim()
		if admit != nil && !admit(k, victim.key) {
			return false, false
		}
		c.remove(victim)
		evicted = true
	}
	it := &lruItem[K, V]{key: k, val: v, protected: !c.segmented}
	if it.protected {
		it.el = c.protected.PushFront(it)
	} else {
		it.el = c.probation.PushFront(it)
	}
	c.items[k] = it
	return true, evicted
}

func (c *LRU[K, V]) remove(it *lruItem[K, V]) {
	if it.protected {
		c.protected.Remove(it.el)
	} else {
		c.probation.Remove(it.el)
	}
	delete(c.items, it.key)
}

// DeleteFunc removes every entry whose key satisfies del and returns the
// number removed.
func (c *LRU[K, V]) DeleteFunc(del func(K) bool) int {
	n := 0
	for k, it := range c.items {
		if del(k) {
			c.remove(it)
			n++
		}
	}
	return n
}

// Len returns the number of resident entries.
func (c *LRU[K, V]) Len() int { return len(c.items) }

// Cap returns the capacity.
func (c *LRU[K, V]) Cap() int { return c.cap }
