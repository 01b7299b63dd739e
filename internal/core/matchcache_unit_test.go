package core

import (
	"testing"

	"repro/internal/qtree"
	"repro/internal/rules"
)

func testSpec(t *testing.T, name string) *rules.Spec {
	t.Helper()
	rs := rules.MustParseRules(`
rule R0 {
  match [a = V];
  where Value(V);
  emit exact [t = V];
}`)
	spec, err := rules.NewSpec(name, rules.NewTarget(name, rules.Capability{Attr: "t", Op: qtree.OpEq}),
		rules.NewRegistry(), rs...)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMatchCacheLRUEviction pins the small-cache semantics: capacities below
// the shard threshold collapse to one shard, so the bound is exact and
// eviction strictly follows recency.
func TestMatchCacheLRUEviction(t *testing.T) {
	spec := testSpec(t, "s1")
	c := NewMatchCache(2)
	if got := len(c.shards); got != 1 {
		t.Fatalf("capacity 2 built %d shards, want 1", got)
	}
	c.put(spec, "k1", nil, 1)
	c.put(spec, "k2", nil, 2)
	if _, ok := c.get(spec, "k1"); !ok { // promote k1: k2 is now oldest
		t.Fatal("k1 missing before capacity was reached")
	}
	c.put(spec, "k3", nil, 3)
	if _, ok := c.get(spec, "k2"); ok {
		t.Error("k2 survived eviction; want LRU entry dropped")
	}
	if _, ok := c.get(spec, "k1"); !ok {
		t.Error("k1 evicted despite being recently used")
	}
	if e, ok := c.get(spec, "k3"); !ok || e.probed != 3 {
		t.Errorf("k3 lookup = (%+v, %v), want probed=3 hit", e, ok)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 3 hits and 1 miss", st)
	}
	if got, want := st.HitRate(), 0.75; got != want {
		t.Errorf("HitRate() = %v, want %v", got, want)
	}
}

// TestMatchCacheSpecKeying checks entries are scoped to the spec identity:
// the same constraint-set key under two specs occupies two entries, and
// Invalidate drops exactly one spec's entries.
func TestMatchCacheSpecKeying(t *testing.T) {
	sa, sb := testSpec(t, "sa"), testSpec(t, "sb")
	c := NewMatchCache(8)
	c.put(sa, "k", nil, 1)
	c.put(sb, "k", nil, 2)
	c.put(sb, "k2", nil, 3)
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want 3 (same key under two specs must not collide)", c.Len())
	}
	if e, _ := c.get(sa, "k"); e.probed != 1 {
		t.Errorf("sa entry probed = %d, want 1", e.probed)
	}
	if e, _ := c.get(sb, "k"); e.probed != 2 {
		t.Errorf("sb entry probed = %d, want 2", e.probed)
	}
	if got := c.Invalidate(sb); got != 2 {
		t.Errorf("Invalidate(sb) = %d, want 2", got)
	}
	if _, ok := c.get(sb, "k"); ok {
		t.Error("sb entry survived Invalidate")
	}
	if _, ok := c.get(sa, "k"); !ok {
		t.Error("Invalidate(sb) dropped sa's entry")
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d after invalidation, want 1", c.Len())
	}
}

// TestMatchCacheSharding checks large caches distribute capacity across all
// shards without losing any of it.
func TestMatchCacheSharding(t *testing.T) {
	c := NewMatchCache(100)
	if got := len(c.shards); got != matchCacheShards {
		t.Fatalf("capacity 100 built %d shards, want %d", got, matchCacheShards)
	}
	total := 0
	for i := range c.shards {
		total += c.shards[i].lru.Cap()
	}
	if total != 100 {
		t.Errorf("shard capacities sum to %d, want 100", total)
	}
	if def := NewMatchCache(0); len(def.shards) != matchCacheShards {
		t.Errorf("NewMatchCache(0) built %d shards, want %d", len(def.shards), matchCacheShards)
	}
}

// TestMatchCacheAdmissionEvictsProbationFirst pins the admission victim
// rule on a shard: an entry hit since insertion outlives a hotter newcomer
// while an entry never hit is there to be displaced instead.
func TestMatchCacheAdmissionEvictsProbationFirst(t *testing.T) {
	spec := testSpec(t, "s1")
	c := NewMatchCacheAdmission(2, true)
	c.get(spec, "hot")
	c.put(spec, "hot", nil, 1)
	c.get(spec, "hot") // a hit: protected from now on
	c.get(spec, "cold")
	c.put(spec, "cold", nil, 2) // never hit: the shard's victim
	for i := 0; i < 3; i++ {
		c.get(spec, "new") // more frequent than either resident
	}
	c.put(spec, "new", nil, 3)
	if _, ok := c.get(spec, "hot"); !ok {
		t.Fatal("admission evicted the protected entry; want the never-hit one")
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len() = %d, want 2", n)
	}
}
