package serve

import (
	"sync"

	"repro/internal/mediator"
	"repro/internal/resilience"
)

// lruCache is a bounded, mutex-guarded LRU map of canonical query key →
// translation, optionally guarded by a TinyLFU admission sketch. Values are
// shared between callers and treated as immutable.
type lruCache struct {
	mu        sync.Mutex
	lru       *resilience.LRU[string, *mediator.Translation]
	evictions uint64
	// admit, when non-nil, is the TinyLFU admission sketch: every Get
	// touches it (hits and misses both build frequency), a full cache only
	// admits an insert whose estimated frequency strictly exceeds the
	// eviction victim's, and the LRU is segmented (see resilience.LRU).
	admit    *resilience.Sketch
	rejected uint64
}

// newLRU returns a cache of the given capacity; admit, when non-nil, turns
// on TinyLFU admission.
func newLRU(capacity int, admit *resilience.Sketch) *lruCache {
	return &lruCache{
		lru:   resilience.NewLRU[string, *mediator.Translation](capacity, admit != nil),
		admit: admit,
	}
}

// Get returns the cached translation for key, promoting it to most
// recently used. With admission on, every lookup — hit or miss — feeds the
// frequency sketch, so a recurring key that keeps missing accumulates the
// estimate it needs to eventually displace a colder resident.
func (c *lruCache) Get(key string) (*mediator.Translation, bool) {
	if c.admit != nil {
		c.admit.Touch(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// Add inserts (or refreshes) key, evicting the LRU's victim when full. With
// admission on, a full cache refuses the insert when the candidate's
// estimated frequency does not strictly exceed the victim's — the caller
// still gets its value, it just isn't cached — so one-off scan keys cannot
// evict the hot working set.
func (c *lruCache) Add(key string, v *mediator.Translation) {
	var admit func(candidate, victim string) bool
	if c.admit != nil {
		admit = c.admit.Admit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	added, evicted := c.lru.Add(key, v, admit)
	if !added {
		c.rejected++
	}
	if evicted {
		c.evictions++
	}
}

// Rejected returns the number of inserts refused by admission.
func (c *lruCache) Rejected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejected
}

// Len returns the number of resident entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Evictions returns the total number of entries evicted for capacity.
func (c *lruCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// flightCall is one in-flight translation shared by concurrent callers.
type flightCall struct {
	done    chan struct{} // closed when val/err are set
	val     *mediator.Translation
	err     error
	waiters int // callers blocked on done; guarded by flightGroup.mu
}

// flightGroup collapses concurrent computations for the same key into a
// single execution — the singleflight pattern, hand-rolled because the
// module is stdlib-only. It suppresses cache stampedes: N concurrent misses
// for one canonical key run one translation.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// Do runs fn at most once per key among concurrent callers and hands every
// caller the same result. shared is true for callers that waited on another
// caller's execution instead of running fn themselves.
func (g *flightGroup) Do(key string, fn func() (*mediator.Translation, error)) (v *mediator.Translation, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
