package serve

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/qparse"
)

// TestStatsInvariantUnderConcurrency hammers a server from 16 goroutines and
// checks the cache accounting identity the registry re-base must preserve:
// every request resolves its translation exactly one way, so
// hits + misses + shared == requests.
func TestStatsInvariantUnderConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 200

	srv, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 64}, Workers: 8})
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := qparse.MustParse(mixedWorkload[(g+i)%len(mixedWorkload)])
				if _, err := srv.Query(ctx, q); err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := srv.Stats()
	const total = goroutines * perG
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if got := st.CacheHits + st.CacheMisses + st.CacheShared; got != st.Requests {
		t.Errorf("hits %d + misses %d + shared %d = %d, want requests %d",
			st.CacheHits, st.CacheMisses, st.CacheShared, got, st.Requests)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after all queries returned, want 0", st.InFlight)
	}
	if st.Errors != 0 || st.Timeouts != 0 {
		t.Errorf("errors = %d, timeouts = %d, want 0", st.Errors, st.Timeouts)
	}
	// Executions come from the latency histograms now: every request fans
	// out to both sources, so each source completed exactly `total` phases.
	for name, sc := range st.Sources {
		if sc.Executions != total {
			t.Errorf("source %s executions = %d, want %d", name, sc.Executions, total)
		}
		var sum uint64
		for _, n := range sc.LatencyBuckets {
			sum += n
		}
		if sum != sc.Executions {
			t.Errorf("source %s latency buckets sum to %d, executions %d", name, sum, sc.Executions)
		}
	}
}

// TestServerMetricsExposition checks that a served workload is visible on
// the server's registry in the exposition format and agrees with Stats().
func TestServerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv, med, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 16}, Metrics: reg})
	med.Metrics = obs.NewTranslationMetrics(reg)
	if srv.Metrics() != reg {
		t.Fatal("Metrics() did not return the configured registry")
	}

	ctx := context.Background()
	q := qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
	for i := 0; i < 3; i++ {
		if _, err := srv.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
	}
	byName := func(name string, labels ...string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			match := true
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Label(labels[i]) != labels[i+1] {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
		return 0, false
	}

	st := srv.Stats()
	for _, check := range []struct {
		name string
		want float64
	}{
		{"qmap_serve_requests_total", float64(st.Requests)},
		{"qmap_cache_hits_total", float64(st.CacheHits)},
		{"qmap_cache_misses_total", float64(st.CacheMisses)},
		{"qmap_cache_entries", float64(st.CacheEntries)},
		{"qmap_serve_in_flight", 0},
	} {
		got, ok := byName(check.name)
		if !ok {
			t.Errorf("metric %s missing from scrape", check.name)
			continue
		}
		if got != check.want {
			t.Errorf("%s = %v, want %v", check.name, got, check.want)
		}
	}
	if v, ok := byName("qmap_source_latency_seconds_count", "source", "amazon"); !ok || v != float64(st.Sources["amazon"].Executions) {
		t.Errorf("amazon latency count = %v (present %v), want %d", v, ok, st.Sources["amazon"].Executions)
	}
	if v, ok := byName("qmap_source_latency_seconds_bucket", "source", "amazon", "le", "+Inf"); !ok || v != float64(st.Sources["amazon"].Executions) {
		t.Errorf("amazon +Inf bucket = %v (present %v), want %d", v, ok, st.Sources["amazon"].Executions)
	}
	// The mediator's rule-level counters share the registry (the spec label
	// is the mapping-knowledge name, K_Amazon): the cached repeats must not
	// re-count, so exactly one translation ran SCM.
	if v, ok := byName("qmap_scm_calls_total", "spec", "K_Amazon"); !ok || v != 1 {
		t.Errorf("qmap_scm_calls_total{spec=K_Amazon} = %v (present %v), want 1 (one uncached translation)", v, ok)
	}
}

// statsMetricFor maps a Stats JSON field name to the registry metric that
// must back it. The stats-drift test below fails when a field is added to
// one surface only.
var statsMetricFor = map[string]string{
	"requests":             "qmap_serve_requests_total",
	"in_flight":            "qmap_serve_in_flight",
	"cache_hits":           "qmap_cache_hits_total",
	"cache_misses":         "qmap_cache_misses_total",
	"cache_shared":         "qmap_cache_shared_total",
	"cache_entries":        "qmap_cache_entries",
	"cache_evictions":      "qmap_cache_evictions_total",
	"matchcache_hits":      "qmap_matchcache_hits_total",
	"matchcache_misses":    "qmap_matchcache_misses_total",
	"matchcache_evictions": "qmap_matchcache_evictions_total",
	"matchcache_entries":   "qmap_matchcache_entries",
	"index_probes":         "qmap_index_probes_total",
	"index_fallbacks":      "qmap_index_fallbacks_total",
	"index_scanned_tuples": "qmap_index_scanned_tuples_total",
	"breaker_trips":        "qmap_breaker_trips_total",
	"hedges_launched":      "qmap_hedge_launched_total",
	"hedges_won":           "qmap_hedge_won_total",
	"retries":              "qmap_retry_total",
	"admission_rejected":   "qmap_admission_rejected_total",
	"timeouts":             "qmap_serve_timeouts_total",
	"errors":               "qmap_serve_errors_total",
	// Per-source maps and display labels have labeled/derived backing:
	"sources":        "qmap_source_latency_seconds",
	"latency_labels": "", // presentation-only: names the histogram buckets
}

// TestStatsMetricsDrift asserts every field of the GET /stats JSON shape has
// a matching metric in the server's registry (or an explicit presentation
// exemption), so a counter can't be added to one surface and forgotten on
// the other.
func TestStatsMetricsDrift(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{Index: true})
	// Touch the query path so functional collectors have live backing state.
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
