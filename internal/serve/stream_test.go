package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/sources"
)

// libraryServer builds the Example 3 join-style stack (T1 + T2 with glue).
func libraryServer(cfg Config) (*Server, *mediator.Mediator, map[string]*engine.Relation) {
	med := mediator.New(sources.NewT1(), sources.NewT2())
	med.Glue = sources.LibraryGlue()
	people, papers := sources.GenLibrary(42, 10, 25)
	data := map[string]*engine.Relation{
		"t1": sources.T1Relation(people, papers),
		"t2": sources.T2Relation(people),
	}
	return New(med, data, cfg), med, data
}

// TestStreamUnionEquivalence checks that the streaming path answers every
// mixed-workload query byte-identically — content and order — to the
// sequential ExecuteUnion, across shard counts and buffer sizes.
func TestStreamUnionEquivalence(t *testing.T) {
	_, med, data := bookstoreServer(Config{})
	for _, shards := range []int{1, 2, 8} {
		for _, buf := range []int{1, 8, 64} {
			srv := New(med, data, Config{Stream: true, Shards: shards, StreamBuffer: buf})
			for _, s := range mixedWorkload {
				q := qparse.MustParse(s)
				wantRel, _, err := med.ExecuteUnion(q, data)
				if err != nil {
					t.Fatal(err)
				}
				got, err := srv.Query(context.Background(), q)
				if err != nil {
					t.Fatalf("shards=%d buf=%d %q: %v", shards, buf, s, err)
				}
				if render(got) != render(wantRel) {
					t.Errorf("shards=%d buf=%d: streaming Query(%q) diverged from ExecuteUnion", shards, buf, s)
				}
			}
		}
	}
}

// TestStreamJoinEquivalence checks the streaming join path (build side +
// streamed probe) against the sequential ExecuteJoin on Example 3.
func TestStreamJoinEquivalence(t *testing.T) {
	_, med, data := libraryServer(Config{})
	queries := []string{
		`[fac.ln = pub.ln] and [fac.fn = pub.fn] and [fac.bib contains data(near)mining] and [fac.dept = cs]`,
		`([fac.dept = cs] or [fac.dept = ee]) and [fac.bib contains data(near)mining]`,
	}
	for _, shards := range []int{1, 2, 8} {
		srv := New(med, data, Config{Stream: true, Shards: shards, StreamBuffer: 4})
		for _, s := range queries {
			q := qparse.MustParse(s)
			wantRel, _, err := med.ExecuteJoin(q, data)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.QueryJoin(context.Background(), q)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, s, err)
			}
			if render(got) != render(wantRel) {
				t.Errorf("shards=%d: streaming QueryJoin(%q) diverged from ExecuteJoin", shards, s)
			}
		}
	}
}

// TestStreamConcurrentEquivalence is the -race hammer for the streaming
// path: 8 goroutines against one streaming server, every answer compared to
// the sequential baseline.
func TestStreamConcurrentEquivalence(t *testing.T) {
	srv, med, data := bookstoreServer(Config{Stream: true, Shards: 4, StreamBuffer: 8, CacheSize: 32})
	queries := make([]string, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		queries[i] = s
		rel, _, err := med.ExecuteUnion(qparse.MustParse(s), data)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(rel)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (g + i) % len(queries)
				rel, err := srv.Query(context.Background(), qparse.MustParse(queries[k]))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if render(rel) != want[k] {
					t.Errorf("goroutine %d: streaming result for %q diverged", g, queries[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Stats()
	if st.StreamRequests == 0 || st.StreamEmitted == 0 {
		t.Errorf("stream counters flat: requests=%d emitted=%d", st.StreamRequests, st.StreamEmitted)
	}
	if st.StreamInFlight != 0 {
		t.Errorf("stream in-flight = %d after all queries returned, want 0", st.StreamInFlight)
	}
}

// TestStreamBuildBudget forces a streaming join whose build side exceeds a
// tiny budget and expects the typed error.
func TestStreamBuildBudget(t *testing.T) {
	_, med, data := libraryServer(Config{})
	srv := New(med, data, Config{Stream: true, Shards: 2, BuildBudget: 1})
	q := qparse.MustParse(`([fac.dept = cs] or [fac.dept = ee]) and [fac.bib contains data(near)mining]`)
	_, err := srv.QueryJoin(context.Background(), q)
	if !errors.Is(err, ErrBuildBudget) {
		t.Fatalf("err = %v, want ErrBuildBudget", err)
	}
	if srv.Stats().Errors == 0 {
		t.Error("budget failure not counted in Errors")
	}
}

// TestStreamJoinIndexedBuildBudget: with access paths on, the join's build
// side collects through index probes, the budget still counts matching
// tuples, and an over-budget build fails with the typed error during the
// stream. With an adequate budget the indexed join must stay byte-identical
// to the sequential materialized join.
func TestStreamJoinIndexedBuildBudget(t *testing.T) {
	_, med, data := libraryServer(Config{})
	q := qparse.MustParse(`([fac.dept = cs] or [fac.dept = ee]) and [fac.bib contains data(near)mining]`)

	srv := New(med, data, Config{Stream: true, Shards: 2, Index: true, BuildBudget: 1})
	_, err := srv.QueryJoin(context.Background(), q)
	if !errors.Is(err, ErrBuildBudget) {
		t.Fatalf("err = %v, want ErrBuildBudget", err)
	}
	if st := srv.Stats(); st.IndexProbes+st.IndexFallbacks == 0 {
		t.Error("indexed build side planned no access paths")
	}

	srv = New(med, data, Config{Stream: true, Shards: 2, Index: true})
	want, _, err := med.ExecuteJoin(q, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.QueryJoin(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Error("indexed streaming QueryJoin diverged from ExecuteJoin")
	}
}

// TestStreamShardHookFault injects a typed failure through the per-shard
// hook and expects it to surface wrapped from Query.
func TestStreamShardHookFault(t *testing.T) {
	_, med, data := bookstoreServer(Config{})
	inj := engine.NewInjector(3, engine.FaultPlan{ErrProb: 1})
	srv := New(med, data, Config{Stream: true, Shards: 2, ShardHook: inj.ApplyShard})
	_, err := srv.Query(context.Background(), qparse.MustParse(`[publisher = "aw"]`))
	if !errors.Is(err, engine.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

// TestStreamShardTimeout stalls every shard past the per-shard deadline and
// expects a deadline error plus timeout accounting.
func TestStreamShardTimeout(t *testing.T) {
	_, med, data := bookstoreServer(Config{})
	hook := func(ctx context.Context, _ string, _ int) error {
		select {
		case <-time.After(time.Second):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	srv := New(med, data, Config{Stream: true, Shards: 2, SourceTimeout: 2 * time.Millisecond, ShardHook: hook})
	_, err := srv.Query(context.Background(), qparse.MustParse(`[publisher = "aw"]`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if srv.Stats().Timeouts == 0 {
		t.Error("shard deadline not counted in Timeouts")
	}
}

// TestStreamCancelNoLeak cancels streaming requests at several points and
// checks the goroutine count settles back — the serve-level half of the
// leak test (the pipeline-level half lives in internal/stream).
func TestStreamCancelNoLeak(t *testing.T) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(3, 4000))
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	srv := New(med, data, Config{Stream: true, Shards: 8, StreamBuffer: 1})
	q := qparse.MustParse(`[pyear = 1997] or [pyear = 1996] or [pyear = 1995]`)

	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i%2 == 0 {
			cancel() // cancelled before the shards start
		} else {
			go func() {
				time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
				cancel() // cancelled mid-emit / mid-merge
			}()
		}
		_, _ = srv.Query(ctx, q)
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle to %d (now %d)\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := srv.Stats(); st.StreamInFlight != 0 {
		t.Fatalf("stream in-flight = %d after cancellations, want 0", st.StreamInFlight)
	}
}

// TestStreamSpan checks the streaming path emits its summary span when the
// request context carries a tracer.
func TestStreamSpan(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{Stream: true, Shards: 2})
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := srv.Query(ctx, qparse.MustParse(`[publisher = "aw"]`)); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root == nil {
		t.Fatal("no trace recorded")
	}
	spans := root.FindAll(obs.KindStream)
	if len(spans) != 1 {
		t.Fatalf("got %d stream spans, want 1", len(spans))
	}
	if v, ok := spans[0].Counter("shards"); !ok || v != 4 {
		t.Errorf("stream span shards = %d (ok=%v), want 4 (2 sources × 2 shards)", v, ok)
	}
}

// statsMetricFor maps a Stats JSON field name to the registry metric that
// must back it. The stats-drift test below fails when a field is added to
// one surface only.
var statsMetricFor = map[string]string{
	"requests":              "qmap_serve_requests_total",
	"in_flight":             "qmap_serve_in_flight",
	"cache_hits":            "qmap_cache_hits_total",
	"cache_misses":          "qmap_cache_misses_total",
	"cache_shared":          "qmap_cache_shared_total",
	"cache_entries":         "qmap_cache_entries",
	"cache_evictions":       "qmap_cache_evictions_total",
	"matchcache_hits":       "qmap_matchcache_hits_total",
	"matchcache_misses":     "qmap_matchcache_misses_total",
	"matchcache_evictions":  "qmap_matchcache_evictions_total",
	"matchcache_entries":    "qmap_matchcache_entries",
	"stream_requests":       "qmap_stream_requests_total",
	"stream_in_flight":      "qmap_stream_in_flight",
	"stream_peak_in_flight": "qmap_stream_peak_in_flight",
	"stream_emitted":        "qmap_stream_emitted_total",
	"stream_merge_waits":    "qmap_stream_merge_waits_total",
	"index_probes":          "qmap_index_probes_total",
	"index_fallbacks":       "qmap_index_fallbacks_total",
	"index_scanned_tuples":  "qmap_index_scanned_tuples_total",
	"breaker_trips":         "qmap_breaker_trips_total",
	"hedges_launched":       "qmap_hedge_launched_total",
	"hedges_won":            "qmap_hedge_won_total",
	"retries":               "qmap_retry_total",
	"admission_rejected":    "qmap_admission_rejected_total",
	"timeouts":              "qmap_serve_timeouts_total",
	"errors":                "qmap_serve_errors_total",
	// Per-source maps and display labels have labeled/derived backing:
	"sources":        "qmap_source_latency_seconds",
	"latency_labels": "", // presentation-only: names the histogram buckets
}

// TestStatsMetricsDrift asserts every field of the GET /stats JSON shape has
// a matching metric in the server's registry (or an explicit presentation
// exemption), so a counter can't be added to one surface and forgotten on
// the other.
func TestStatsMetricsDrift(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{Stream: true, Shards: 2, Index: true})
	// Touch both paths so functional collectors have live backing state.
	if _, err := srv.Query(context.Background(), qparse.MustParse(`[publisher = "aw"]`)); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	exported := make(map[string]bool, len(samples))
	for _, s := range samples {
		exported[s.Name] = true
		// Histograms expand to _bucket/_sum/_count; credit the base name.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			exported[strings.TrimSuffix(s.Name, suffix)] = true
		}
	}

	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		tag := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		if tag == "-" {
			continue // not part of the GET /stats JSON shape
		}
		if tag == "" {
			t.Errorf("Stats field %s has no json tag", st.Field(i).Name)
			continue
		}
		metric, known := statsMetricFor[tag]
		if !known {
			t.Errorf("Stats field %q has no entry in statsMetricFor: add the backing metric and map it", tag)
			continue
		}
		if metric == "" {
			continue // explicit presentation-only exemption
		}
		if !exported[metric] {
			t.Errorf("Stats field %q maps to metric %q, which the registry does not export", tag, metric)
		}
	}

	// The reverse direction: every mapped metric name must actually exist,
	// so the table can't rot either.
	for tag, metric := range statsMetricFor {
		if metric != "" && !exported[metric] {
			t.Errorf("statsMetricFor[%q] = %q not present in exposition", tag, metric)
		}
	}

	// SourceStats fields are label-backed; check them explicitly.
	for field, metric := range map[string]string{
		"executions":      "qmap_source_latency_seconds", // histogram count
		"timeouts":        "qmap_source_timeouts_total",
		"latency_buckets": "qmap_source_latency_seconds",
		"breaker_state":   "qmap_breaker_state",
	} {
		if !exported[metric] {
			t.Errorf("SourceStats field %q maps to metric %q, which the registry does not export", field, metric)
		}
	}
	sst := reflect.TypeOf(SourceStats{})
	for i := 0; i < sst.NumField(); i++ {
		tag := strings.Split(sst.Field(i).Tag.Get("json"), ",")[0]
		switch tag {
		case "executions", "timeouts", "latency_buckets", "breaker_state":
		default:
			t.Errorf("SourceStats field %q has no metric mapping in TestStatsMetricsDrift", tag)
		}
	}
}

// TestStreamPeakBounded runs a streaming query with a large answer and
// checks the peak in-flight gauge respects the shards × (buffer+2) bound —
// the memory-bound claim of the subsystem, at the serve level.
func TestStreamPeakBounded(t *testing.T) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(5, 6000))
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	const shards, buf = 4, 8
	srv := New(med, data, Config{Stream: true, Shards: shards, StreamBuffer: buf})
	rel, err := srv.Query(context.Background(), qparse.MustParse(`[pyear = 1997] or [pyear = 1996]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Tuples) == 0 {
		t.Fatal("expected a large answer")
	}
	st := srv.Stats()
	bound := int64(2 * shards * (buf + 2)) // two sources
	if st.StreamPeakInFlight > bound {
		t.Fatalf("peak in-flight %d exceeds %d (= sources × shards × (buffer+2)); answer had %d tuples",
			st.StreamPeakInFlight, bound, len(rel.Tuples))
	}
	if st.StreamPeakInFlight == 0 {
		t.Fatal("peak in-flight stayed zero on a streaming request")
	}
	_ = fmt.Sprintf("%d", st.StreamEmitted)
}
