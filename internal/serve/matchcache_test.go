package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// newBookstoreMediator builds the two-source bookstore stack serve_test.go's
// bookstoreServer wraps, without constructing a Server — so tests can take a
// cache-free sequential baseline or set Parallelism before New installs the
// shared matchings cache.
func newBookstoreMediator() (*mediator.Mediator, map[string]*engine.Relation) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(11, 240))
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	return med, map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
}

// TestServeMatchCacheGrid re-runs the mixed workload against the sequential
// cache-free mediator baseline across shared-matchings-cache on/off and
// translation parallelism 0/4: the cross-request cache and the branch worker
// pool must both be answer-invariant, alone and combined.
func TestServeMatchCacheGrid(t *testing.T) {
	baseMed, baseData := newBookstoreMediator()
	qs := make([]*qtree.Node, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		qs[i] = qparse.MustParse(s)
		rel, _, err := baseMed.ExecuteUnion(qs[i], baseData)
		if err != nil {
			t.Fatalf("sequential baseline %q: %v", s, err)
		}
		want[i] = render(rel)
	}

	for _, g := range []struct {
		name       string
		matchcache int // Config.MatchCacheSize
		par        int // mediator.Parallelism
	}{
		{"cache-off/seq", -1, 0},
		{"cache-on/seq", 0, 0},
		{"cache-off/par4", -1, 4},
		{"cache-on/par4", 0, 4},
	} {
		t.Run(g.name, func(t *testing.T) {
			med, data := newBookstoreMediator()
			med.Parallelism = g.par
			srv := New(med, data, Config{MatchCacheSize: g.matchcache})
			if (srv.MatchCache() != nil) != (g.matchcache >= 0) {
				t.Fatalf("MatchCache() nil-ness wrong for MatchCacheSize %d", g.matchcache)
			}

			ctx := context.Background()
			const goroutines = 8
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 3*len(qs); i++ {
						k := (w + i) % len(qs)
						rel, err := srv.Query(ctx, qs[k])
						if err != nil {
							t.Errorf("Query(%q): %v", mixedWorkload[k], err)
							return
						}
						if render(rel) != want[k] {
							t.Errorf("Query(%q) diverged from cache-free sequential baseline", mixedWorkload[k])
							return
						}
					}
				}(w)
			}
			wg.Wait()

			st := srv.Stats()
			if g.matchcache < 0 {
				if st.MatchCacheHits != 0 || st.MatchCacheMisses != 0 || st.MatchCacheEntries != 0 {
					t.Errorf("disabled cache reported activity: %+v", st)
				}
			}
		})
	}
}

// TestServeMatchCacheChurnSoak mirrors the translation-cache churn soak one
// level down: a 2-entry shared matchings cache under a distinct-query
// workload must evict continuously while every answer stays byte-identical
// to the sequential baseline and the resident count respects capacity.
func TestServeMatchCacheChurnSoak(t *testing.T) {
	baseMed, baseData := newBookstoreMediator()
	qs := make([]*qtree.Node, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		qs[i] = qparse.MustParse(s)
		rel, _, err := baseMed.ExecuteUnion(qs[i], baseData)
		if err != nil {
			t.Fatalf("sequential baseline %q: %v", s, err)
		}
		want[i] = render(rel)
	}

	const capacity = 2
	med, data := newBookstoreMediator()
	// CacheSize 1 keeps the translation cache from absorbing the workload:
	// almost every request re-translates and so re-consults the match cache.
	srv := New(med, data, Config{CacheSize: 1, MatchCacheSize: capacity})

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(qs); i++ {
				k := (w + i) % len(qs)
				rel, err := srv.Query(ctx, qs[k])
				if err != nil {
					t.Errorf("Query(%q): %v", mixedWorkload[k], err)
					return
				}
				if render(rel) != want[k] {
					t.Errorf("Query(%q) diverged under match-cache churn", mixedWorkload[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := srv.MatchCache().Stats()
	if st.Evictions == 0 {
		t.Error("expected eviction churn with a 2-entry match cache over a wider working set")
	}
	if st.Entries > capacity {
		t.Errorf("Entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if st.Misses == 0 {
		t.Error("no match-cache misses recorded; cache appears bypassed")
	}
	srvStats := srv.Stats()
	if srvStats.MatchCacheEvictions != st.Evictions || srvStats.MatchCacheHits != st.Hits {
		t.Errorf("server Stats %+v disagrees with MatchCacheStats %+v", srvStats, st)
	}
}

// TestServerTranslateBatch checks batch translation matches per-query
// Translate result-for-result, counts one request per query, and fails the
// whole remainder on a canceled context.
func TestServerTranslateBatch(t *testing.T) {
	med, data := newBookstoreMediator()
	srv := New(med, data, Config{})
	ctx := context.Background()

	qs := make([]*qtree.Node, 0, 2*len(mixedWorkload))
	for _, s := range mixedWorkload {
		qs = append(qs, qparse.MustParse(s))
	}
	qs = append(qs, qs[:len(mixedWorkload)]...) // duplicates: cache + singleflight territory

	before := srv.Stats().Requests
	results := srv.TranslateBatch(ctx, qs)
	if len(results) != len(qs) {
		t.Fatalf("%d results for %d queries", len(results), len(qs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		single, err := srv.Translate(ctx, qs[i])
		if err != nil {
			t.Fatalf("single Translate %d: %v", i, err)
		}
		if r.Translation.Filter.String() != single.Filter.String() {
			t.Errorf("item %d: batch filter %s != single %s", i, r.Translation.Filter, single.Filter)
		}
		for j := range r.Translation.Sources {
			if got, want := r.Translation.Sources[j].Query.String(), single.Sources[j].Query.String(); got != want {
				t.Errorf("item %d source %d: batch %s != single %s", i, j, got, want)
			}
		}
	}
	if got := srv.Stats().Requests - before; got < uint64(len(qs)) {
		t.Errorf("batch recorded %d requests, want at least %d", got, len(qs))
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	errBefore := srv.Stats().Errors
	for i, r := range srv.TranslateBatch(canceled, qs) {
		// Duplicates may still resolve from the resident cache before the
		// worker observes cancellation; an item must either fail with the
		// context error or carry a real translation.
		if r.Err == nil && r.Translation == nil {
			t.Errorf("item %d: neither translation nor error under canceled context", i)
		}
	}
	if srv.Stats().Errors == errBefore {
		t.Error("canceled batch recorded no errors")
	}

	if got := srv.TranslateBatch(ctx, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
}

// TestServeSharesOneMatchCacheAcrossRequests pins the tentpole claim: two
// requests for distinct queries sharing constraint groups reuse matchings
// through the server's cache, visible as hits without any Stats divergence.
func TestServeSharesOneMatchCacheAcrossRequests(t *testing.T) {
	med, data := newBookstoreMediator()
	srv := New(med, data, Config{CacheSize: 1})
	ctx := context.Background()

	// The {ln, fn} conjunction appears as q1's whole constraint set and as
	// one Or-branch of q2: same canonical constraint-group key, but the two
	// queries canonicalize differently, so the translation cache cannot
	// serve the second — only the match cache carries work across.
	q1 := qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
	q2 := qparse.MustParse(`([ln = "Clancy"] and [fn = "Tom"]) or [kwd contains web]`)
	if _, err := srv.Translate(ctx, q1); err != nil {
		t.Fatal(err)
	}
	h0 := srv.MatchCache().Stats().Hits
	if _, err := srv.Translate(ctx, q2); err != nil {
		t.Fatal(err)
	}
	if srv.MatchCache().Stats().Hits == h0 {
		t.Error("second request with overlapping constraint groups recorded no match-cache hits")
	}

	// A mediator that already carries a cache keeps it.
	mc := core.NewMatchCache(64)
	med2, data2 := newBookstoreMediator()
	med2.MatchCache = mc
	srv2 := New(med2, data2, Config{})
	if srv2.MatchCache() != mc {
		t.Error("New replaced the mediator's existing match cache")
	}
}
