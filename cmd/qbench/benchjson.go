// BENCH_matching.json: the machine-readable perf trajectory for the
// matching engine. `qbench -bench-json BENCH_matching.json` re-measures the
// compiled-dispatch and dependency-degree benchmarks and rewrites the file;
// `qbench -bench-check BENCH_matching.json` verifies the recorded shape —
// flag set and benchmark list — still matches this binary, so CI fails when
// qbench's flags or the benchmark suite change without regenerating the
// file (timings are recorded, not checked: they vary by machine).

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qtree"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/values"
	"repro/internal/workload"
)

// benchSchema versions the file layout.
const benchSchema = "qbench-bench/v1"

type benchFile struct {
	Schema string `json:"schema"`
	// QbenchFlags records the sorted flag names of the qbench binary that
	// wrote the file; -bench-check fails when the current binary differs.
	QbenchFlags []string     `json:"qbench_flags"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Name string `json:"name"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AttemptsPerOp counts rules probed for matchings per operation.
	AttemptsPerOp float64 `json:"attempts_per_op,omitempty"`
	// TermsPerOp counts safety-check product terms per operation.
	TermsPerOp float64 `json:"terms_per_op,omitempty"`
	// HitRatePct is the shared matchings-cache hit rate over the whole
	// measurement, for the cache benchmarks.
	HitRatePct float64 `json:"hit_rate_pct,omitempty"`
	// ScannedTuples is the number of tuples evaluated per operation, for the
	// scan/* benchmarks — the evidence that index probes touch candidates
	// instead of the universe (see indexedRows).
	ScannedTuples float64 `json:"scanned_tuples,omitempty"`
	// P99NsPerOp is the 99th-percentile per-request wall time for the
	// tail-latency benchmarks (hedge/tail/*) — the quantity hedged source
	// requests exist to improve, recorded so the trajectory file witnesses
	// the tail collapsing when hedging is on.
	P99NsPerOp float64 `json:"p99_ns_per_op,omitempty"`
	// HedgesWonPct is the fraction of requests won by a hedged attempt over
	// the measurement, for the hedge/tail/on row.
	HedgesWonPct float64 `json:"hedges_won_pct,omitempty"`
	// AllocsPerOp is heap allocations per operation, for the scan/* and
	// union rows.
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// CompiledPct is the share of operations the column snapshot answered
	// on its rows, for the scan/compiled rows (see compiledFloor).
	CompiledPct float64 `json:"compiled_pct,omitempty"`
}

// registeredFlagNames enumerates the qbench flag set, sorted.
func registeredFlagNames() []string {
	fs := flag.NewFlagSet("qbench", flag.ContinueOnError)
	registerFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	return names
}

// timeOp measures fn with a doubling loop until the sample exceeds 50ms,
// returning ns/op.
func timeOp(fn func()) float64 {
	fn() // warm up (lazy compilation, memo-free first pass)
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= 50*time.Millisecond || iters >= 1<<20 {
			return math.Round(float64(elapsed.Nanoseconds()) / float64(iters))
		}
		iters *= 2
	}
}

// wideMatchSpec builds one single-pattern rule per attribute a0..a{r-1}, the
// many-rules regime where compiled dispatch pays off (mirrors the
// BenchmarkMatchingsCompiled fixture).
func wideMatchSpec(r int) *rules.Spec {
	rs := make([]*rules.Rule, 0, r)
	caps := make([]rules.Capability, 0, r)
	for i := 0; i < r; i++ {
		text := fmt.Sprintf(`
rule R%d {
  match [a%d = V];
  where Value(V);
  emit exact [t%d = V];
}`, i, i, i)
		rs = append(rs, rules.MustParseRules(text)...)
		caps = append(caps, rules.Capability{Attr: fmt.Sprintf("t%d", i), Op: qtree.OpEq})
	}
	return rules.MustSpec(fmt.Sprintf("K_wide%d", r), rules.NewTarget("wide", caps...),
		rules.NewRegistry(), rs...)
}

func wideMatchQuery(r int) []*qtree.Constraint {
	cs := make([]*qtree.Constraint, 0, 8)
	for i := 0; i < 8; i++ {
		cs = append(cs, qtree.Sel(qtree.A(fmt.Sprintf("a%d", i*r/8)), qtree.OpEq,
			values.String(fmt.Sprintf("v%d", i))))
	}
	return cs
}

// runBenchSuite measures the fixed benchmark list. The names are stable:
// -bench-check compares them against the recorded file.
func runBenchSuite() []benchEntry {
	var out []benchEntry

	// Compiled vs uncompiled matching dispatch on wide specs.
	for _, r := range []int{32, 128} {
		s := wideMatchSpec(r)
		cs := wideMatchQuery(r)
		out = append(out, benchEntry{
			Name: fmt.Sprintf("matchings/uncompiled/R=%d", r),
			NsPerOp: timeOp(func() {
				if _, err := s.Matchings(cs); err != nil {
					panic(err)
				}
			}),
			AttemptsPerOp: float64(r),
		})
		c := s.Compiled()
		var probed int
		out = append(out, benchEntry{
			Name: fmt.Sprintf("matchings/compiled/R=%d", r),
			NsPerOp: timeOp(func() {
				var err error
				if _, probed, err = c.MatchingsCounted(cs); err != nil {
					panic(err)
				}
			}),
			AttemptsPerOp: float64(probed),
		})
	}

	// Dependency-degree sweep: fixed e, growing k (Sections 4.4, 8). The
	// paper's claim is cost near-flat in k at fixed e; attempts/op and
	// terms/op make that observable.
	const n = 4
	for _, variant := range []struct {
		name     string
		compiled bool
	}{{"tdqm", true}, {"tdqm-uncompiled", false}} {
		for _, e := range []int{0, 2} {
			for _, k := range []int{2, 4, 8} {
				s, q := workload.DependencyConjunction(n, k, e)
				var opts []core.Option
				if !variant.compiled {
					opts = append(opts, core.WithCompiled(false), core.WithMemo(false))
				}
				tr := core.NewTranslator(s.Spec, opts...)
				ops := 0
				ns := timeOp(func() {
					ops++
					if _, err := tr.TDQM(q); err != nil {
						panic(err)
					}
				})
				out = append(out, benchEntry{
					Name:          fmt.Sprintf("sweep/%s/e=%d/k=%d", variant.name, e, k),
					NsPerOp:       ns,
					AttemptsPerOp: float64(tr.Stats.RuleAttempts) / float64(ops),
					TermsPerOp:    float64(tr.Stats.ProductTerms) / float64(ops),
				})
			}
		}
	}

	out = append(out, runServeCacheBench()...)
	out = append(out, runBatchBench()...)
	out = append(out, runUnionBench()...)
	out = append(out, runScanBench()...)
	out = append(out, runJoinBench()...)
	out = append(out, runComposeBench()...)
	out = append(out, runHedgeBench()...)
	out = append(out, runAdmissionBench()...)
	return out
}

// runHedgeBench measures the per-request latency tail against a source pair
// whose executions suffer a deterministic-seeded 5% chance of a multi-
// millisecond benign delay — the transiently-slow-replica regime hedging is
// built for. The off/on pair shares the fault plan; the on row launches a
// duplicate execution after the source's tracked latency-quantile delay and
// takes the first completion. ns/op is the mean, p99_ns_per_op the nearest-
// rank 99th percentile over the sample — the recorded evidence of the p99
// hedge win.
func runHedgeBench() []benchEntry {
	ctx := context.Background()
	q := unionBenchQuery()
	const reqs = 400
	var out []benchEntry
	for _, variant := range []struct {
		name  string
		hedge bool
	}{{"off", false}, {"on", true}} {
		inj := engine.NewInjector(7, engine.FaultPlan{
			DelayProb: 0.05,
			Delay:     8 * time.Millisecond,
		})
		srv := bookstoreStack(200, serve.Config{
			Cache:      serve.CacheConfig{Size: 16},
			Resilience: serve.ResilienceConfig{Hedge: variant.hedge},
			Executor: func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
				if err := inj.Apply(ctx, source); err != nil {
					return nil, err
				}
				return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
			},
		})
		if _, err := srv.Query(ctx, q); err != nil { // warm the translation cache
			panic(err)
		}
		lats := make([]time.Duration, reqs)
		var total time.Duration
		for i := range lats {
			t0 := time.Now()
			if _, err := srv.Query(ctx, q); err != nil {
				panic(err)
			}
			lats[i] = time.Since(t0)
			total += lats[i]
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		entry := benchEntry{
			Name:       "hedge/tail/" + variant.name,
			NsPerOp:    math.Round(float64(total.Nanoseconds()) / reqs),
			P99NsPerOp: float64(lats[reqs*99/100].Nanoseconds()),
		}
		if variant.hedge {
			entry.HedgesWonPct = math.Round(1000*float64(srv.Stats().HedgesWon)/reqs) / 10
		}
		out = append(out, entry)
	}
	return out
}

// runAdmissionBench measures the translation cache under a scan-polluted
// rotation: every operation translates one query from a 32-entry hot set
// (fitting the 32-entry cache exactly) and one from a 2048-query scan pool
// that recycles far too slowly to deserve caching. Plain LRU lets every scan
// insert evict a hot entry; TinyLFU admission refuses inserts whose
// estimated frequency does not beat the victim's, so the hot set survives —
// hit_rate_pct records the difference.
func runAdmissionBench() []benchEntry {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	hot := benchQueriesSeed(s, 32, 1999)
	scans := benchQueriesSeed(s, 2048, 2024)
	ctx := context.Background()
	var out []benchEntry
	for _, variant := range []struct {
		name  string
		admit bool
	}{{"lru", false}, {"tinylfu", true}} {
		med := mediator.New(&sources.Source{Name: "w1", Spec: s.Spec, Eval: s.Eval})
		srv := serve.New(med, nil, serve.Config{
			Cache: serve.CacheConfig{
				Size:           32,
				MatchCacheSize: -1,
				Admission:      variant.admit,
			},
		})
		i := 0
		entry := benchEntry{
			Name: "admission/" + variant.name + "/scanmix",
			NsPerOp: timeOp(func() {
				if _, err := srv.Translate(ctx, hot[i%len(hot)]); err != nil {
					panic(err)
				}
				if _, err := srv.Translate(ctx, scans[i%len(scans)]); err != nil {
					panic(err)
				}
				i++
			}),
		}
		entry.HitRatePct = math.Round(1000*srv.Stats().HitRate()) / 10
		out = append(out, entry)
	}
	return out
}

// runJoinBench compares join-style mediation's two executions on fixed
// library selections (T1 and T2 of a 48-person, 20-paper library), the
// library glue and a filter keeping a few pairs: the materialized product
// with two selections, the oracle's chain, against engine.Join's
// hash-probed kernel. The probe is most of the kernel's lead, so the trend
// check fails the kernel row if the probe stops running.
func runJoinBench() []benchEntry {
	people, papers := sources.GenLibrary(3, 48, 20)
	t1, t2 := sources.T1Relation(people, papers), sources.T2Relation(people)
	glue := sources.LibraryGlue()
	filter := qtree.Leaf(qtree.Sel(qtree.VA("fac", "bib"), qtree.OpContains, values.String("mining")))
	ev := engine.NewEvaluator()
	return []benchEntry{
		{
			Name: "join/product",
			NsPerOp: timeOp(func() {
				joined, err := engine.Product(t1, t2).Select(glue, ev)
				if err == nil {
					_, err = joined.Select(filter, ev)
				}
				if err != nil {
					panic(err)
				}
			}),
		},
		{
			Name: "join/kernel",
			NsPerOp: timeOp(func() {
				if _, err := engine.Join([]*engine.Relation{t1, t2}, glue, filter, ev); err != nil {
					panic(err)
				}
			}),
		},
	}
}

// runScanBench compares the engine's full-scan selection against the same
// scan compiled over a column snapshot and against the cost-based access
// path on a 4k-tuple, ~0.5%-selectivity workload — one row triple per probe
// kind (hash equality, sorted-array range, inverted-token contains).
// scanned_tuples records how many tuples each operation actually evaluated:
// the universe for full scans, probe candidates for indexed runs.
func runScanBench() []benchEntry {
	const n = 4000
	rel := workload.AccessRelation(n)
	ev := engine.NewEvaluator()
	acc := engine.BuildAccess(rel)
	snap := engine.NewSnapshot(rel)
	var rows []int32
	ctx := context.Background()
	var out []benchEntry
	for _, variant := range []struct {
		name string
		q    *qtree.Node
	}{
		{"eq", qtree.Leaf(qtree.Sel(qtree.A("cat"), qtree.OpEq, values.Int(7)))},
		{"range", qtree.Leaf(qtree.Sel(qtree.A("price"), qtree.OpLt, values.Int(50)))},
		{"contains", qtree.Leaf(qtree.Sel(qtree.A("desc"), qtree.OpContains, values.String("xenon")))},
	} {
		q := variant.q
		full := func() {
			if _, err := rel.Select(q, ev); err != nil {
				panic(err)
			}
		}
		out = append(out, benchEntry{
			Name:          "scan/full/" + variant.name,
			NsPerOp:       timeOp(full),
			ScannedTuples: n,
			AllocsPerOp:   testing.AllocsPerRun(100, full),
		})
		ops := 0
		compiled := func() {
			ops++
			var err error
			if rows, _, err = snap.Select(rows[:0], q, ev, nil); err != nil {
				panic(err)
			}
			snap.Relation(rows)
		}
		before := snap.Stats().Compiled
		entry := benchEntry{
			Name:          "scan/compiled/" + variant.name,
			NsPerOp:       timeOp(compiled),
			ScannedTuples: n,
		}
		entry.CompiledPct = math.Round(1000*float64(snap.Stats().Compiled-before)/float64(ops)) / 10
		entry.AllocsPerOp = testing.AllocsPerRun(100, compiled)
		out = append(out, entry)
		before = acc.Stats().Scanned
		ops = 0
		indexed := func() {
			ops++
			if _, err := rel.SelectAccess(ctx, q, ev, acc); err != nil {
				panic(err)
			}
		}
		entry = benchEntry{
			Name:    "scan/indexed/" + variant.name,
			NsPerOp: timeOp(indexed),
		}
		entry.ScannedTuples = math.Round(float64(acc.Stats().Scanned-before) / float64(ops))
		entry.AllocsPerOp = testing.AllocsPerRun(100, indexed)
		out = append(out, entry)
	}
	return out
}

// runComposeBench measures the spec-algebra payoff on the dependency-degree
// grid: a second mapping hop is layered over each scenario's target
// vocabulary, and the same query is translated sequentially through both
// hops (the chain-debug reference) and through the offline-composed
// single-hop spec. Both paths use fresh translators per op, so the rows
// isolate per-request translation work — the one-time Compose cost is paid
// outside the timed loop, which is the deployment model.
func runComposeBench() []benchEntry {
	ctx := context.Background()
	var out []benchEntry
	for _, e := range []int{0, 2} {
		for _, k := range []int{2, 8} {
			s, q := workload.DependencyConjunction(4, k, e)
			ch := workload.NewChain(s, rand.New(rand.NewSource(7)))
			chain, err := mediator.Chain(s.Spec, ch.Spec2)
			if err != nil {
				panic(err)
			}
			var seqStats core.Stats
			seqOps := 0
			out = append(out, benchEntry{
				Name: fmt.Sprintf("compose/sequential/e=%d/k=%d", e, k),
				NsPerOp: timeOp(func() {
					seqOps++
					_, st, err := chain.SequentialTranslate(ctx, q, core.AlgTDQM)
					if err != nil {
						panic(err)
					}
					seqStats.Add(st)
				}),
				AttemptsPerOp: float64(seqStats.RuleAttempts) / float64(seqOps),
			})
			var compStats core.Stats
			compOps := 0
			out = append(out, benchEntry{
				Name: fmt.Sprintf("compose/composed/e=%d/k=%d", e, k),
				NsPerOp: timeOp(func() {
					compOps++
					tr := core.NewTranslator(chain.Composed)
					if _, err := tr.TDQM(q); err != nil {
						panic(err)
					}
					compStats.Add(tr.Stats)
				}),
				AttemptsPerOp: float64(compStats.RuleAttempts) / float64(compOps),
			})
		}
	}
	return out
}

// bookstoreStack builds the Amazon+Clbooks union stack over a generated
// catalog — the fixture the union and hedge benchmarks execute against.
func bookstoreStack(nBooks int, cfg serve.Config) *serve.Server {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(5, nBooks))
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	return serve.New(med, data, cfg)
}

// unionBenchQuery selects two years' worth of books — an answer that grows
// linearly with the catalog.
func unionBenchQuery() *qtree.Node {
	return qtree.Or(
		qtree.Leaf(qtree.Sel(qtree.A("pyear"), qtree.OpEq, values.Int(1997))),
		qtree.Leaf(qtree.Sel(qtree.A("pyear"), qtree.OpEq, values.Int(1996))),
	)
}

// unionBenchBooks are the catalog sizes of the union/books=N rows.
var unionBenchBooks = []int{1000, 4000, 8000}

// runUnionBench times Server.Query of unionBenchQuery on growing catalogs,
// with a warm translation cache: selection on the column snapshots, the
// branch filters and the ranked merge, each row with its heap allocations
// per request.
func runUnionBench() []benchEntry {
	ctx := context.Background()
	q := unionBenchQuery()
	var out []benchEntry
	for _, books := range unionBenchBooks {
		srv := bookstoreStack(books, serve.Config{Cache: serve.CacheConfig{Size: 16}})
		query := func() {
			if _, err := srv.Query(ctx, q); err != nil {
				panic(err)
			}
		}
		out = append(out, benchEntry{
			Name:        fmt.Sprintf("union/books=%d", books),
			NsPerOp:     timeOp(query),
			AllocsPerOp: testing.AllocsPerRun(100, query),
		})
	}
	return out
}

// benchQueries is the fixed query rotation the cache and batch benchmarks
// translate: deterministic-seeded random trees over the standard synthetic
// scenario.
func benchQueries(s *workload.Scenario, n int) []*qtree.Node {
	return benchQueriesSeed(s, n, 1999)
}

// benchQueriesSeed is benchQueries with an explicit generator seed, so two
// rotations over the same scenario can be made disjoint (the admission
// benchmark's hot set vs scan pool).
func benchQueriesSeed(s *workload.Scenario, n int, seed int64) []*qtree.Node {
	rng := rand.New(rand.NewSource(seed))
	cfg := workload.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.4}
	qs := make([]*qtree.Node, n)
	for i := range qs {
		qs[i] = s.RandomQuery(rng, cfg)
	}
	return qs
}

// runServeCacheBench measures a serve.Server translating a rotation of
// distinct queries with the shared matchings cache off and warm. The
// translation cache is held at one entry so every request re-translates —
// isolating the cross-request matching reuse the shared cache provides;
// the warm row's hit rate shows the reuse happened (see warmCacheFloor).
func runServeCacheBench() []benchEntry {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	qs := benchQueries(s, 32)
	ctx := context.Background()
	var out []benchEntry
	for _, variant := range []struct {
		name string
		size int // MatchCacheSize: negative disables
	}{{"off", -1}, {"warm", 0}} {
		med := mediator.New(&sources.Source{Name: "w1", Spec: s.Spec, Eval: s.Eval})
		srv := serve.New(med, nil, serve.Config{Cache: serve.CacheConfig{Size: 1, MatchCacheSize: variant.size}})
		i := 0
		entry := benchEntry{
			Name: "serve/sharedmatchcache/" + variant.name,
			NsPerOp: timeOp(func() {
				if _, err := srv.Translate(ctx, qs[i%len(qs)]); err != nil {
					panic(err)
				}
				i++
			}),
		}
		if mc := srv.MatchCache(); mc != nil {
			entry.HitRatePct = math.Round(1000*mc.Stats().HitRate()) / 10
		}
		out = append(out, entry)
	}
	return out
}

// runBatchBench compares per-query translation on fresh translators (the
// cold path) against TranslateBatch over one shared-state translator. Both
// entries record ns per query, not ns per batch.
func runBatchBench() []benchEntry {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	qs := benchQueries(s, 32)
	ctx := context.Background()
	n := float64(len(qs))
	var out []benchEntry

	out = append(out, benchEntry{
		Name: "batch/loop",
		NsPerOp: math.Round(timeOp(func() {
			for _, q := range qs {
				tr := core.NewTranslator(s.Spec)
				if _, err := tr.Do(ctx, q, core.AlgTDQM); err != nil {
					panic(err)
				}
			}
		}) / n),
	})

	mc := core.NewMatchCache(0)
	tr := core.NewTranslator(s.Spec, core.WithMatchCache(mc))
	out = append(out, benchEntry{
		Name: "batch/translatebatch",
		NsPerOp: math.Round(timeOp(func() {
			for _, r := range tr.TranslateBatch(ctx, qs, core.AlgTDQM) {
				if r.Err != nil {
					panic(r.Err)
				}
			}
		}) / n),
		HitRatePct: math.Round(1000*mc.Stats().HitRate()) / 10,
	})
	return out
}

// benchNames is the expected benchmark list, derived without measuring.
func benchNames() []string {
	var names []string
	for _, r := range []int{32, 128} {
		names = append(names,
			fmt.Sprintf("matchings/uncompiled/R=%d", r),
			fmt.Sprintf("matchings/compiled/R=%d", r))
	}
	for _, v := range []string{"tdqm", "tdqm-uncompiled"} {
		for _, e := range []int{0, 2} {
			for _, k := range []int{2, 4, 8} {
				names = append(names, fmt.Sprintf("sweep/%s/e=%d/k=%d", v, e, k))
			}
		}
	}
	names = append(names,
		"serve/sharedmatchcache/off",
		"serve/sharedmatchcache/warm",
		"batch/loop",
		"batch/translatebatch")
	for _, books := range unionBenchBooks {
		names = append(names, fmt.Sprintf("union/books=%d", books))
	}
	for _, v := range []string{"eq", "range", "contains"} {
		names = append(names, "scan/full/"+v, "scan/compiled/"+v, "scan/indexed/"+v)
	}
	names = append(names, "join/product", "join/kernel")
	for _, e := range []int{0, 2} {
		for _, k := range []int{2, 8} {
			names = append(names,
				fmt.Sprintf("compose/sequential/e=%d/k=%d", e, k),
				fmt.Sprintf("compose/composed/e=%d/k=%d", e, k))
		}
	}
	names = append(names,
		"hedge/tail/off",
		"hedge/tail/on",
		"admission/lru/scanmix",
		"admission/tinylfu/scanmix")
	return names
}

// medianBenchRuns repeats the suite runs times and keeps, per benchmark, the
// entry with the median ns/op — one noisy scheduler hiccup can no longer
// distort the recorded trajectory. The suite's fixed order aligns entries
// positionally across runs.
func medianBenchRuns(runs int) []benchEntry {
	if runs < 1 {
		runs = 1
	}
	all := make([][]benchEntry, runs)
	for r := range all {
		all[r] = runBenchSuite()
	}
	out := make([]benchEntry, len(all[0]))
	for i := range out {
		samples := make([]benchEntry, 0, runs)
		for r := range all {
			if i < len(all[r]) {
				samples = append(samples, all[r][i])
			}
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a].NsPerOp < samples[b].NsPerOp })
		out[i] = samples[len(samples)/2]
	}
	return out
}

// writeBenchJSON runs the suite runs times and writes the per-benchmark
// medians to path.
func writeBenchJSON(path string, runs int) error {
	f := benchFile{
		Schema:      benchSchema,
		QbenchFlags: registeredFlagNames(),
		Benchmarks:  medianBenchRuns(runs),
	}
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// readBenchJSON loads and schema-checks one bench file.
func readBenchJSON(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (regenerate with qbench -bench-json %s)", err, path)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return nil, fmt.Errorf("%s has schema %q, this qbench writes %q (regenerate)", path, f.Schema, benchSchema)
	}
	return &f, nil
}

// compareBenchJSON is -bench-check's trend mode: it compares the timings in
// path against the baseline file, failing when any benchmark present in
// both slowed down by more than threshold (a fraction: 0.5 allows new ns/op
// up to 1.5× the baseline). Only intersecting names are compared, so the
// trend check keeps working across suite additions; speedups never fail.
func compareBenchJSON(path, against string, threshold float64) error {
	cur, err := readBenchJSON(path)
	if err != nil {
		return err
	}
	base, err := readBenchJSON(against)
	if err != nil {
		return err
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
	}
	var regressions []string
	compared := 0
	for _, b := range cur.Benchmarks {
		old, ok := baseNs[b.Name]
		if !ok || old <= 0 {
			continue
		}
		compared++
		if ratio := b.NsPerOp / old; ratio > 1+threshold {
			regressions = append(regressions,
				fmt.Sprintf("  %s: %.0f ns/op vs %.0f ns/op baseline (%.2fx > %.2fx allowed)",
					b.Name, b.NsPerOp, old, ratio, 1+threshold))
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no benchmark names — nothing to compare", path, against)
	}
	if len(regressions) > 0 {
		msg := fmt.Sprintf("%d of %d benchmarks regressed beyond the %.0f%% threshold vs %s:",
			len(regressions), compared, 100*threshold, against)
		for _, r := range regressions {
			msg += "\n" + r
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// checkBenchJSON verifies path's shape against the current binary.
func checkBenchJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (regenerate with qbench -bench-json %s)", err, path)
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return fmt.Errorf("%s has schema %q, this qbench writes %q (regenerate)", path, f.Schema, benchSchema)
	}
	if got, want := fmt.Sprint(f.QbenchFlags), fmt.Sprint(registeredFlagNames()); got != want {
		return fmt.Errorf("%s is stale: recorded qbench flags %v, current binary has %v (regenerate with qbench -bench-json)",
			path, f.QbenchFlags, registeredFlagNames())
	}
	var recorded []string
	scanned := make(map[string]float64)
	for _, b := range f.Benchmarks {
		recorded = append(recorded, b.Name)
		scanned[b.Name] = b.ScannedTuples
	}
	if got, want := fmt.Sprint(recorded), fmt.Sprint(benchNames()); got != want {
		return fmt.Errorf("%s is stale: recorded benchmarks %v, suite is %v (regenerate with qbench -bench-json)",
			path, recorded, benchNames())
	}
	for _, b := range f.Benchmarks {
		if b.Name == warmCacheRow && b.HitRatePct < warmCacheFloor {
			return fmt.Errorf("%s: %s records a %.1f%% hit rate, below the %.0f%% that shows its cache layer ran",
				path, b.Name, b.HitRatePct, float64(warmCacheFloor))
		}
		if strings.HasPrefix(b.Name, compiledRows) && b.CompiledPct < compiledFloor {
			return fmt.Errorf("%s: %s records %.1f%% of its operations answered on the column snapshot, below the %.0f%% that shows the compiled path ran",
				path, b.Name, b.CompiledPct, float64(compiledFloor))
		}
		if kind, ok := strings.CutPrefix(b.Name, indexedRows); ok {
			full := fullScanRows + kind
			if b.ScannedTuples >= scanned[full] {
				return fmt.Errorf("%s: %s records %.0f scanned tuples, not below %s's %.0f, so its index probes did not run",
					path, b.Name, b.ScannedTuples, full, scanned[full])
			}
		}
	}
	return nil
}

// warmCacheRow times the shared matchings cache. Below warmCacheFloor
// percent hits it measured some other layer, so -bench-check rejects it.
// The compiledRows time Snapshot.Select; an operation the snapshot did not
// answer timed the tuple path, so -bench-check rejects any row below
// compiledFloor percent. An indexedRows row that evaluates no fewer tuples
// than the fullScanRows row of its kind scanned instead of probing, so
// -bench-check rejects it too.
const (
	warmCacheRow   = "serve/sharedmatchcache/warm"
	warmCacheFloor = 90
	compiledRows   = "scan/compiled/"
	compiledFloor  = 100
	indexedRows    = "scan/indexed/"
	fullScanRows   = "scan/full/"
)
