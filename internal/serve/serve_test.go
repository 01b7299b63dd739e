package serve

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// bookstoreServer builds a union-style serving stack over the Examples 1–2
// bookstore (Amazon + Clbooks over one catalog), mirroring cmd/mediatord.
func bookstoreServer(cfg Config) (*Server, *mediator.Mediator, map[string]*engine.Relation) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(11, 240))
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	return New(med, data, cfg), med, data
}

// mixedWorkload is a mixed bag of simple conjunctions (SCM path), complex
// trees (TDQM path), permuted duplicates (canonical-cache sharing), and an
// empty-answer query.
var mixedWorkload = []string{
	`[ln = "Clancy"] and [fn = "Tom"]`,
	`[fn = "Tom"] and [ln = "Clancy"]`,
	`[publisher = "aw"]`,
	`[pyear = 1997] and [pmonth = 5]`,
	`[ti contains java(near)jdk]`,
	`([ln = "Clancy"] and [fn = "Tom"]) or [kwd contains web]`,
	`[kwd contains web] or ([fn = "Tom"] and [ln = "Clancy"])`,
	`(([ln = "Smith"] and [fn = "John"]) or [kwd contains web] or [kwd contains java]) and [pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`,
	`[kwd contains java] and ([pyear = 1996] or [pyear = 1997])`,
}

func render(r *engine.Relation) string {
	var b strings.Builder
	for _, t := range r.Tuples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConcurrentEquivalence hammers one Server from 8 goroutines with the
// mixed workload and asserts every parallel answer is byte-identical to the
// sequential mediator.ExecuteUnion result. Run under -race this is the
// concurrency-correctness check of the serving layer.
func TestConcurrentEquivalence(t *testing.T) {
	srv, med, data := bookstoreServer(Config{Cache: CacheConfig{Size: 32}, Workers: 4})

	queries := make([]*qtree.Node, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		queries[i] = qparse.MustParse(s)
		rel, _, err := med.ExecuteUnion(queries[i], data)
		if err != nil {
			t.Fatalf("sequential %s: %v", s, err)
		}
		want[i] = render(rel)
	}

	const goroutines, rounds = 8, 40
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(queries)
				rel, err := srv.Query(ctx, queries[k])
				if err != nil {
					errCh <- err
					return
				}
				if got := render(rel); got != want[k] {
					t.Errorf("goroutine %d: parallel result for %q diverged from sequential", g, mixedWorkload[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.Requests != goroutines*rounds {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*rounds)
	}
	if st.CacheHits == 0 {
		t.Error("expected cache hits under a repeating workload")
	}
	if st.Errors != 0 || st.Timeouts != 0 {
		t.Errorf("Errors = %d, Timeouts = %d, want 0", st.Errors, st.Timeouts)
	}
	for _, name := range []string{"amazon", "clbooks"} {
		if st.Sources[name].Executions == 0 {
			t.Errorf("source %s recorded no executions", name)
		}
	}
}

// joinShapes are join-library's six query shapes: dept∧bib, ln∧dept,
// pub.ln∧dept, bib∧title, Example 3, and (dept∨dept)∧title.
var joinShapes = []string{
	`[fac.dept = cs] and [fac.bib contains data(near)mining]`,
	`[fac.ln = "Ullman"] and [fac.dept = cs]`,
	`[pub.ln = "Garcia"] and [fac.dept = ee]`,
	`[fac.bib contains mining] and [pub.ti contains search]`,
	`[fac.ln = pub.ln] and [fac.fn = pub.fn] and [fac.bib contains data(near)mining] and [fac.dept = cs]`,
	`([fac.dept = cs] or [fac.dept = ee]) and [pub.ti contains optimization]`,
}

// TestQueryJoinEquivalence checks the join-style fan-out against the
// sequential ExecuteJoin on the Example 3 library scenario: every join
// shape, over several generated libraries.
func TestQueryJoinEquivalence(t *testing.T) {
	med := mediator.New(sources.NewT1(), sources.NewT2())
	med.Glue = sources.LibraryGlue()
	answers := 0
	for _, seed := range []int64{1, 7, 42, 2024} {
		people, papers := sources.GenLibrary(seed, 10, 25)
		data := map[string]*engine.Relation{
			"t1": sources.T1Relation(people, papers),
			"t2": sources.T2Relation(people),
		}
		srv := New(med, data, Config{Cache: CacheConfig{Size: 8}})
		for _, s := range joinShapes {
			q := qparse.MustParse(s)
			wantRel, _, err := med.ExecuteJoin(q, data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.QueryJoin(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(wantRel) {
				t.Errorf("seed %d: QueryJoin(%q) diverged from ExecuteJoin", seed, s)
			}
			answers += got.Len()
		}
	}
	if answers == 0 {
		t.Error("no shape answered on any library; the comparison is vacuous")
	}
}

// TestIndexOneAccessPerRelation: sources that share a universe relation
// share one Access, both sources' selections run through it, and the index
// totals count each selection once.
func TestIndexOneAccessPerRelation(t *testing.T) {
	srv, med, data := bookstoreServer(Config{Index: true})
	if len(srv.access) != 1 {
		t.Fatalf("server over one shared relation holds %d access paths, want 1", len(srv.access))
	}
	for _, s := range mixedWorkload {
		checkUnion(t, srv, med, data, qparse.MustParse(s), true)
	}
	for _, acc := range srv.access {
		as, st := acc.Stats(), srv.Stats()
		if selections := uint64(len(med.Sources) * len(mixedWorkload)); as.Probes+as.Fallbacks < selections {
			t.Errorf("access ran %d probes and %d fallbacks, want at least one per selection (%d)",
				as.Probes, as.Fallbacks, selections)
		}
		if st.IndexProbes != as.Probes || st.IndexFallbacks != as.Fallbacks || st.IndexScanned != as.Scanned {
			t.Errorf("stats count probes/fallbacks/scanned %d/%d/%d, the access %d/%d/%d",
				st.IndexProbes, st.IndexFallbacks, st.IndexScanned, as.Probes, as.Fallbacks, as.Scanned)
		}
	}
}

// TestCacheStampede asserts singleflight duplicate-suppression: N
// concurrent misses for one canonical key run exactly one translation.
func TestCacheStampede(t *testing.T) {
	var calls atomic.Int32
	running := make(chan struct{})
	release := make(chan struct{})
	want := &mediator.Translation{}
	ct := newCachingTranslator(func(*qtree.Node) (*mediator.Translation, error) {
		if calls.Add(1) == 1 {
			close(running)
		}
		<-release
		return want, nil
	}, 8, false, 0)

	q1 := qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
	q2 := qparse.MustParse(`[fn = "Tom"] and [ln = "Clancy"]`) // same canonical key

	const stampede = 16
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if tr, err := ct.Translate(q1); err != nil || tr != want {
			t.Errorf("leader: (%v, %v)", tr, err)
		}
	}()
	<-running // translation in flight: every duplicate below must join it
	for i := 0; i < stampede-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := q1
			if i%2 == 0 {
				q = q2
			}
			if tr, err := ct.Translate(q); err != nil || tr != want {
				t.Errorf("follower: (%v, %v)", tr, err)
			}
		}(i)
	}
	// Followers either join the in-flight call (shared) or, if scheduled
	// after completion, hit the cache; none may recompute.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("translation ran %d times under stampede, want 1", calls.Load())
	}
	if got := ct.Hits() + ct.Misses() + ct.Shared(); got != stampede {
		t.Errorf("hits+misses+shared = %d, want %d", got, stampede)
	}
	if ct.Misses() != 1 {
		t.Errorf("Misses = %d, want 1", ct.Misses())
	}
	if ct.Shared() == 0 {
		t.Error("expected at least one singleflight-shared caller")
	}
}

// TestCanonicalCacheSharing asserts permuted-but-equivalent queries share
// one cache entry (and return the identical translation instance).
func TestCanonicalCacheSharing(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 8}})
	ctx := context.Background()
	a, err := srv.Translate(ctx, qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Translate(ctx, qparse.MustParse(`[fn = "Tom"] and [ln = "Clancy"]`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("permuted query missed the canonical cache entry")
	}
	ct := srv.Translator()
	if ct.Misses() != 1 || ct.Hits() != 1 || ct.Len() != 1 {
		t.Errorf("misses=%d hits=%d len=%d, want 1/1/1", ct.Misses(), ct.Hits(), ct.Len())
	}
}

// TestSourceTimeout asserts the per-source deadline cuts off slow scans and
// is recorded in the stats.
func TestSourceTimeout(t *testing.T) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(5, 4000))
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	srv := New(med, data, Config{Cache: CacheConfig{Size: 8}, SourceTimeout: time.Nanosecond})

	_, err := srv.Query(context.Background(), qparse.MustParse(`[ti contains java(near)jdk]`))
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	st := srv.Stats()
	if st.Timeouts == 0 {
		t.Errorf("Timeouts = 0, want > 0 (err = %v)", err)
	}
	if st.Errors == 0 {
		t.Error("Errors = 0, want > 0")
	}
}

// TestCanceledContext asserts a pre-canceled request context fails fast.
func TestCanceledContext(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 8}, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, qparse.MustParse(`[publisher = "aw"]`)); err == nil {
		t.Error("expected context.Canceled from the fan-out")
	}
}

// TestCacheEvictionUnderPressure runs more distinct queries than the cache
// holds and checks evictions are counted while answers stay correct.
func TestCacheEvictionUnderPressure(t *testing.T) {
	srv, med, data := bookstoreServer(Config{Cache: CacheConfig{Size: 2}})
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, s := range mixedWorkload {
			q := qparse.MustParse(s)
			got, err := srv.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			wantRel, _, err := med.ExecuteUnion(q, data)
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(wantRel) {
				t.Fatalf("eviction pressure broke correctness for %q", s)
			}
		}
	}
	st := srv.Stats()
	if st.CacheEvictions == 0 {
		t.Error("expected evictions with capacity 2 and 8 distinct keys")
	}
	if st.CacheEntries > 2 {
		t.Errorf("CacheEntries = %d exceeds capacity 2", st.CacheEntries)
	}
}
