package core

import (
	"hash/maphash"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/resilience"
	"repro/internal/rules"
)

// MatchCache is the cross-request matchings cache: a spec-keyed, bounded
// LRU of canonical constraint-set key → (matchings, rules probed), shared
// across translations, translators, and requests. It generalizes the
// translation-scoped memo (memo.go) one level up: distinct requests whose
// queries overlap in constraint groups re-derive identical SCM matchings,
// and because a spec's rules are immutable the first derivation is valid
// for every later translation against the same *rules.Spec.
//
// Keying and invalidation: entries are keyed by (spec identity, canonical
// constraint-set key). Spec identity is the *rules.Spec pointer — two specs
// with identical rules do not share entries, and a spec's entries can be
// dropped wholesale with Invalidate. There is no time-based expiry: specs
// are immutable after construction everywhere in this repository, so an
// entry only leaves the cache by LRU eviction or explicit invalidation.
//
// Concurrency: the cache is safe for concurrent use. The key space is
// sharded and each shard holds its own mutex and LRU list, so eviction on
// one shard never blocks lookups on another; the hit/miss/eviction counters
// are atomics shared by all shards. Small caches (capacity below the shard
// count threshold) collapse to a single shard so the configured capacity is
// exact; larger caches distribute capacity evenly across shards and the
// bound is enforced per shard.
//
// Cached matchings are shared between translations and must be treated as
// immutable — the same contract the translation memo and serve's
// translation cache already rely on.
type MatchCache struct {
	shards []matchShard
	seed   maphash.Seed

	// admit, when non-nil, is the TinyLFU admission sketch: every lookup
	// touches it, a full shard only admits an insert whose estimated
	// access frequency strictly exceeds its eviction victim's, and the
	// shards' LRUs are segmented (see resilience.LRU). The sketch is keyed
	// by the canonical constraint-set key alone (not the spec pointer) —
	// cross-spec frequency sharing is harmless noise in an
	// already-approximate estimate.
	admit    *resilience.Sketch
	rejected atomic.Uint64

	hits, misses, evictions atomic.Uint64
}

// DefaultMatchCacheSize is the capacity used when NewMatchCache is given a
// non-positive capacity.
const DefaultMatchCacheSize = 4096

// matchCacheShards is the shard count for large caches; caches smaller than
// this stay single-sharded so their capacity is exact.
const matchCacheShards = 16

type matchShard struct {
	mu  sync.Mutex
	lru *resilience.LRU[matchKey, memoEntry]
}

// matchKey scopes a canonical constraint-set key to one spec identity.
type matchKey struct {
	spec *rules.Spec
	cs   string
}

// NewMatchCache returns a cache holding up to capacity matchings entries
// (DefaultMatchCacheSize if capacity <= 0).
func NewMatchCache(capacity int) *MatchCache {
	return NewMatchCacheAdmission(capacity, false)
}

// NewMatchCacheAdmission returns a cache like NewMatchCache, optionally
// guarded by a TinyLFU admission sketch: a full shard refuses inserts whose
// estimated access frequency does not strictly exceed the eviction
// victim's, so a flood of one-off constraint sets (scan-like traffic)
// cannot wash out the hot working set. A refused insert changes nothing
// for its caller — the derived matchings are still returned, just not
// cached. Rejections are counted (AdmissionRejected). The sketch's hash is
// seeded at random per cache.
func NewMatchCacheAdmission(capacity int, admission bool) *MatchCache {
	if capacity <= 0 {
		capacity = DefaultMatchCacheSize
	}
	n := matchCacheShards
	if capacity < matchCacheShards {
		n = 1
	}
	c := &MatchCache{shards: make([]matchShard, n), seed: maphash.MakeSeed()}
	if admission {
		c.admit = resilience.NewSketch(capacity, rand.Uint64())
	}
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i].lru = resilience.NewLRU[matchKey, memoEntry](per, admission)
	}
	return c
}

// shardFor picks the shard by hashing the constraint-set key. The spec
// pointer is part of the map key but not the shard choice: the same
// constraint set under different specs sharing a shard is harmless.
func (c *MatchCache) shardFor(cs string) *matchShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, cs)%uint64(len(c.shards))]
}

// get returns the entry for (spec, cs), promoting it to most recently used
// and counting a hit; a failed lookup counts a miss.
func (c *MatchCache) get(spec *rules.Spec, cs string) (memoEntry, bool) {
	if c.admit != nil {
		c.admit.Touch(cs)
	}
	sh := c.shardFor(cs)
	sh.mu.Lock()
	e, ok := sh.lru.Get(matchKey{spec: spec, cs: cs})
	sh.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return memoEntry{}, false
	}
	c.hits.Add(1)
	return e, true
}

// put inserts (or refreshes) the entry for (spec, cs), evicting the
// shard's LRU victim when the shard is full.
func (c *MatchCache) put(spec *rules.Spec, cs string, ms []*rules.Matching, probed int) {
	var admit func(candidate, victim matchKey) bool
	if c.admit != nil {
		admit = func(candidate, victim matchKey) bool { return c.admit.Admit(candidate.cs, victim.cs) }
	}
	sh := c.shardFor(cs)
	sh.mu.Lock()
	added, evicted := sh.lru.Add(matchKey{spec: spec, cs: cs}, memoEntry{ms: ms, probed: probed}, admit)
	sh.mu.Unlock()
	if !added {
		c.rejected.Add(1)
	}
	if evicted {
		c.evictions.Add(1)
	}
}

// AdmissionRejected returns the number of inserts refused by the TinyLFU
// admission policy (always 0 without admission).
func (c *MatchCache) AdmissionRejected() uint64 { return c.rejected.Load() }

// noteBypass records a tracing-mode bypass as a miss: traced lookups are
// skipped (every match run must emit its spans) but still recorded, so the
// counter keeps hits+misses equal to the number of cache consultations.
func (c *MatchCache) noteBypass() { c.misses.Add(1) }

// Invalidate drops every entry recorded under spec and returns the number
// removed. Specs are immutable, so this is only needed when a spec is
// retired and its entries should stop occupying capacity.
func (c *MatchCache) Invalidate(spec *rules.Spec) int {
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		removed += sh.lru.DeleteFunc(func(k matchKey) bool { return k.spec == spec })
		sh.mu.Unlock()
	}
	return removed
}

// Len returns the number of resident entries across all shards.
func (c *MatchCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// MatchCacheStats is a point-in-time snapshot of a MatchCache's counters.
// It is the only observable difference between cache-on and cache-off
// translation: results, residues, and core.Stats are identical either way,
// because every hit compensates the work counters exactly.
type MatchCacheStats struct {
	// Hits counts lookups served from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found no entry, including traced lookups
	// that bypassed the cache by design (bypass-or-record).
	Misses uint64 `json:"misses"`
	// Evictions counts entries evicted for capacity.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of resident entries.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the cache's counters.
func (c *MatchCache) Stats() MatchCacheStats {
	return MatchCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// HitRate returns the fraction of lookups served from the cache.
func (s MatchCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
