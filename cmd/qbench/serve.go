package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/workload"
)

// serveOptions configures the `-serve` workload mode.
type serveOptions struct {
	clients    int  // concurrent client goroutines
	requests   int  // total requests across all clients
	distinct   int  // distinct queries in the rotation (cache working set)
	cache      int  // translation-cache capacity
	tuples     int  // universe tuples per source
	metrics    bool // print the Prometheus exposition after the run
	par        int  // per-translation worker pool (mediator.Parallelism)
	batch      int  // translate in batches of this size instead of executing (0 = off)
	matchcache int  // shared matchings-cache capacity (0 = default, negative disables)
	index      bool // answer via cost-based access paths (index probes)

	// Drill mode: fixed-RPS open-loop load with latency-percentile SLO
	// reporting (see runDrill).
	rps      int           // target request rate (0 = closed-loop serve mode)
	slo      time.Duration // p99 latency SLO; 0 reports percentiles only
	breaker  bool          // per-source circuit breakers
	hedge    bool          // hedged source requests
	retries  int           // total executions per source request (<= 1 off)
	admit    bool          // TinyLFU cache admission
	taildel  time.Duration // injected tail delay upper bound (0 = off)
	tailprob float64       // probability of the injected tail delay
}

// runServe drives internal/serve with C concurrent clients over the
// synthetic workload generator and reports throughput and cache behavior.
// Two sources share the generated vocabulary but hold independent data,
// so every request fans out across both in parallel. With -rps the
// run switches to the open-loop drill mode: requests are paced at the fixed
// target rate, per-request latency is measured from the intended start time
// (so queueing delay counts), and the run fails when p99 exceeds -slo.
func runServe(opt serveOptions) error {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	med := mediator.New(
		&sources.Source{Name: "w1", Spec: s.Spec, Eval: s.Eval},
		&sources.Source{Name: "w2", Spec: s.Spec, Eval: s.Eval},
	)
	med.Eval = s.Eval
	med.Parallelism = opt.par

	rng := rand.New(rand.NewSource(1999))
	data := map[string]*engine.Relation{}
	for _, name := range []string{"w1", "w2"} {
		rel := engine.NewRelation(name)
		for i := 0; i < opt.tuples; i++ {
			rel.Tuples = append(rel.Tuples, s.RandomTuple(rng))
		}
		data[name] = rel
	}

	// Shallower trees than the property-test default: depth-4 random
	// queries over a pair/triple-heavy scenario occasionally explode under
	// translation and would dominate the tail.
	cfg := workload.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.4}
	queries := make([]*qtree.Node, opt.distinct)
	for i := range queries {
		queries[i] = s.RandomQuery(rng, cfg)
	}

	reg := obs.NewRegistry()
	med.Metrics = obs.NewTranslationMetrics(reg)
	scfg := serve.Config{
		Cache: serve.CacheConfig{
			Size:           opt.cache,
			MatchCacheSize: opt.matchcache,
			Admission:      opt.admit,
		},
		Resilience: serve.ResilienceConfig{
			Breaker: opt.breaker,
			Hedge:   opt.hedge,
			Retries: opt.retries,
		},
		Metrics: reg,
		Index:   opt.index,
	}
	if opt.taildel > 0 {
		inj := engine.NewInjector(1999, engine.FaultPlan{
			DelayProb: opt.tailprob,
			Delay:     opt.taildel,
		})
		scfg.Executor = func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
			if err := inj.Apply(ctx, source); err != nil {
				return nil, err
			}
			return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
		}
	}
	srv := serve.New(med, data, scfg)
	ctx := context.Background()

	if opt.rps > 0 {
		return runDrill(ctx, opt, srv, queries, reg)
	}

	var served, answers, failed atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opt.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(int64(7 + c)))
			n := opt.requests / opt.clients
			if c < opt.requests%opt.clients {
				n++
			}
			if opt.batch > 0 {
				for i := 0; i < n; i += opt.batch {
					size := opt.batch
					if size > n-i {
						size = n - i
					}
					qs := make([]*qtree.Node, size)
					for j := range qs {
						qs[j] = queries[crng.Intn(len(queries))]
					}
					for _, r := range srv.TranslateBatch(ctx, qs) {
						if r.Err != nil {
							failed.Add(1)
							continue
						}
						served.Add(1)
					}
				}
				return
			}
			for i := 0; i < n; i++ {
				rel, err := srv.Query(ctx, queries[crng.Intn(len(queries))])
				if err != nil {
					failed.Add(1)
					continue
				}
				served.Add(1)
				answers.Add(uint64(rel.Len()))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := srv.Stats()
	mode := "executed queries"
	if opt.index {
		mode += " (indexed access paths)"
	}
	if opt.batch > 0 {
		mode = fmt.Sprintf("translate-only batches of %d", opt.batch)
	}
	fmt.Printf("serve workload: %d clients, %d distinct queries, %d tuples/source, %s\n\n",
		opt.clients, opt.distinct, opt.tuples, mode)
	rows := [][]string{
		{"requests served", fmt.Sprintf("%d", served.Load())},
		{"requests failed", fmt.Sprintf("%d", failed.Load())},
		{"answers returned", fmt.Sprintf("%d", answers.Load())},
		{"elapsed", elapsed.Round(time.Millisecond).String()},
		{"throughput", fmt.Sprintf("%.0f req/s", float64(served.Load())/elapsed.Seconds())},
		{"ns/query", fmt.Sprintf("%.0f", float64(elapsed.Nanoseconds())/float64(served.Load()))},
		{"cache hit rate", fmt.Sprintf("%.1f%%", 100*st.HitRate())},
		{"cache hits/misses/shared", fmt.Sprintf("%d/%d/%d", st.CacheHits, st.CacheMisses, st.CacheShared)},
		{"cache entries/evictions", fmt.Sprintf("%d/%d", st.CacheEntries, st.CacheEvictions)},
		{"source timeouts", fmt.Sprintf("%d", st.Timeouts)},
	}
	if opt.index {
		rows = append(rows,
			[]string{"index probes", fmt.Sprintf("%d", st.IndexProbes)},
			[]string{"index fallbacks", fmt.Sprintf("%d", st.IndexFallbacks)},
			[]string{"index scanned tuples", fmt.Sprintf("%d", st.IndexScanned)},
		)
	}
	rows = append(rows, resilienceRows(opt, st)...)
	if mc := srv.MatchCache(); mc != nil {
		mcs := mc.Stats()
		rows = append(rows,
			[]string{"matchcache hit rate", fmt.Sprintf("%.1f%%", 100*mcs.HitRate())},
			[]string{"matchcache hits/misses", fmt.Sprintf("%d/%d", mcs.Hits, mcs.Misses)},
			[]string{"matchcache entries/evictions", fmt.Sprintf("%d/%d", mcs.Entries, mcs.Evictions)},
		)
	}
	table([]string{"metric", "value"}, rows)

	fmt.Println("\nper-source latency (completed executions):")
	labels := st.LatencyLabels
	header := append([]string{"source", "executions"}, labels...)
	var srcRows [][]string
	for _, name := range sortedKeys(st.Sources) {
		sc := st.Sources[name]
		row := []string{name, fmt.Sprintf("%d", sc.Executions)}
		for _, n := range sc.LatencyBuckets {
			row = append(row, fmt.Sprintf("%d", n))
		}
		srcRows = append(srcRows, row)
	}
	table(header, srcRows)

	if opt.metrics {
		fmt.Println("\nmetrics exposition:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: writing metrics: %v\n", err)
		}
	}
	return nil
}

// resilienceRows renders the resilience and admission counters when any of
// the corresponding mechanisms is enabled.
func resilienceRows(opt serveOptions, st serve.Stats) [][]string {
	var rows [][]string
	if opt.breaker || opt.hedge || opt.retries > 1 {
		rows = append(rows,
			[]string{"breaker trips", fmt.Sprintf("%d", st.BreakerTrips)},
			[]string{"hedges launched/won", fmt.Sprintf("%d/%d", st.HedgesLaunched, st.HedgesWon)},
			[]string{"retries", fmt.Sprintf("%d", st.Retries)},
		)
	}
	if opt.admit {
		rows = append(rows,
			[]string{"admission rejected", fmt.Sprintf("%d", st.AdmissionRejected)})
	}
	return rows
}

// runDrill is the fixed-RPS drill: an open-loop load generator launches one
// goroutine per request at its scheduled start time, so a server falling
// behind accumulates measured queueing delay instead of silently slowing the
// offered load (the closed-loop coordinated-omission trap). Latencies are
// measured from the intended start; the run fails when p99 exceeds the SLO.
func runDrill(ctx context.Context, opt serveOptions, srv *serve.Server, queries []*qtree.Node, reg *obs.Registry) error {
	interval := time.Second / time.Duration(opt.rps)
	lats := make([]time.Duration, opt.requests)
	var failed atomic.Uint64
	rng := rand.New(rand.NewSource(7))
	picks := make([]*qtree.Node, opt.requests)
	for i := range picks {
		picks[i] = queries[rng.Intn(len(queries))]
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < opt.requests; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			if _, err := srv.Query(ctx, picks[i]); err != nil {
				failed.Add(1)
			}
			lats[i] = time.Since(scheduled)
		}(i, scheduled)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p50, p95, p99 := quantileDur(sorted, 0.50), quantileDur(sorted, 0.95), quantileDur(sorted, 0.99)

	st := srv.Stats()
	fmt.Printf("drill: %d requests at %d req/s target (achieved %.0f req/s)\n\n",
		opt.requests, opt.rps, float64(opt.requests)/elapsed.Seconds())
	rows := [][]string{
		{"requests failed", fmt.Sprintf("%d", failed.Load())},
		{"elapsed", elapsed.Round(time.Millisecond).String()},
		{"p50 latency", p50.Round(time.Microsecond).String()},
		{"p95 latency", p95.Round(time.Microsecond).String()},
		{"p99 latency", p99.Round(time.Microsecond).String()},
		{"cache hit rate", fmt.Sprintf("%.1f%%", 100*st.HitRate())},
		{"source timeouts", fmt.Sprintf("%d", st.Timeouts)},
	}
	rows = append(rows, resilienceRows(opt, st)...)
	table([]string{"metric", "value"}, rows)

	if opt.metrics {
		fmt.Println("\nmetrics exposition:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: writing metrics: %v\n", err)
		}
	}
	if opt.slo > 0 {
		if p99 > opt.slo {
			return fmt.Errorf("drill SLO violated: p99 %s > %s", p99.Round(time.Microsecond), opt.slo)
		}
		fmt.Printf("\ndrill SLO met: p99 %s <= %s\n", p99.Round(time.Microsecond), opt.slo)
	}
	return nil
}

// quantileDur reads the q-quantile from an ascending latency sample by the
// nearest-rank method.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
