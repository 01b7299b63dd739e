package repro

// Benchmark harness: one testing.B benchmark per experiment in the paper's
// evaluation (see DESIGN.md's experiment index). The paper reports worked
// examples and analytic complexity/compactness claims rather than numeric
// tables; each claim maps to a benchmark family here, and cmd/qbench prints
// the corresponding human-readable tables.
//
//	go test -bench=. -benchmem
//
// Reported custom metrics:
//
//	nodes/out       translated-query parse-tree size (compactness, Section 8)
//	terms/op        product terms examined by safety checks (EDNF cost)
//	disjuncts/op    DNF disjuncts processed by Algorithm DNF

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/workload"
)

// --- E2 (Figure 2): SCM on the paper's Amazon queries ---------------------

func BenchmarkFigure2SCM(b *testing.B) {
	am := sources.NewAmazon()
	queries := map[string]string{
		"Q1": `[ln = "Smith"] and [ti contains java(near)jdk] and [pyear = 1997] and [pmonth = 5] and [kwd contains www]`,
		"Q2": `[publisher = "oreilly"] and [ti = "jdkforjava"] and [category = "D.3"] and [id-no = "081815181Y"]`,
	}
	for name, src := range queries {
		q := qparse.MustParse(src)
		cs := q.SimpleConjuncts()
		b.Run(name, func(b *testing.B) {
			tr := core.NewTranslator(am.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.SCM(cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3 (Example 3): multi-source translation ------------------------------

func BenchmarkExample3Mediation(b *testing.B) {
	med := mediator.New(sources.NewT1(), sources.NewT2())
	q := qparse.MustParse(`[fac.ln = pub.ln] and [fac.fn = pub.fn] and ` +
		`[fac.bib contains data(near)mining] and [fac.dept = cs]`)
	b.Run("translate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := med.Translate(q); err != nil {
				b.Fatal(err)
			}
		}
	})

	people, papers := sources.GenLibrary(42, 10, 25)
	data := map[string]*engine.Relation{
		"t1": sources.T1Relation(people, papers),
		"t2": sources.T2Relation(people),
	}
	med.Glue = sources.LibraryGlue()
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := med.ExecuteJoin(q, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E4 (Example 6 / Figure 7): Q_book under both algorithms --------------

func BenchmarkQBook(b *testing.B) {
	am := sources.NewAmazon()
	qbook := qparse.MustParse(
		`(([ln = "Smith"] and [fn = "John"]) or [kwd contains web] or [kwd contains java]) ` +
			`and [pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`)
	b.Run("TDQM", func(b *testing.B) {
		tr := core.NewTranslator(am.Spec)
		var size int
		for i := 0; i < b.N; i++ {
			out, err := tr.TDQM(qbook)
			if err != nil {
				b.Fatal(err)
			}
			size = out.Size()
		}
		b.ReportMetric(float64(size), "nodes/out")
	})
	b.Run("DNF", func(b *testing.B) {
		tr := core.NewTranslator(am.Spec)
		var size int
		for i := 0; i < b.N; i++ {
			out, err := tr.DNFMap(qbook)
			if err != nil {
				b.Fatal(err)
			}
			size = out.Size()
		}
		b.ReportMetric(float64(size), "nodes/out")
	})
}

// --- E8 (Section 4.4): SCM scaling in N and R ------------------------------

func BenchmarkSCM_N(b *testing.B) {
	s := workload.New(workload.Config{Indep: 128, Pairs: 64})
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{4, 16, 64, 256} {
		q := s.SimpleConjunction(rng, n)
		cs := q.SimpleConjuncts()
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.SCM(cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSCM_R(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, groups := range []int{8, 32, 128} {
		s := workload.New(workload.Config{Indep: groups, Pairs: groups / 2})
		q := s.SimpleConjunction(rng, 24)
		cs := q.SimpleConjuncts()
		b.Run(fmt.Sprintf("R=%d", len(s.Spec.Rules)), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.SCM(cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9 (Section 8): TDQM vs DNF without dependencies ----------------------

func BenchmarkNoDeps(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		s, q := workload.IndependentTree(n)
		b.Run(fmt.Sprintf("TDQM/n=%d", n), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.TDQM(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DNF/n=%d", n), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			tr.ResetStats()
			for i := 0; i < b.N; i++ {
				if _, err := tr.DNFMap(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Stats.DNFDisjuncts)/float64(b.N), "disjuncts/op")
		})
	}
}

// --- E10 (Section 8): compactness family ------------------------------------

func BenchmarkCompactness(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		s, q := workload.WorstCaseCompactness(k)
		b.Run(fmt.Sprintf("TDQM/k=%d", k), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			var size int
			for i := 0; i < b.N; i++ {
				out, err := tr.TDQM(q)
				if err != nil {
					b.Fatal(err)
				}
				size = out.Size()
			}
			b.ReportMetric(float64(size), "nodes/out")
		})
		b.Run(fmt.Sprintf("DNF/k=%d", k), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			var size int
			for i := 0; i < b.N; i++ {
				out, err := tr.DNFMap(q)
				if err != nil {
					b.Fatal(err)
				}
				size = out.Size()
			}
			b.ReportMetric(float64(size), "nodes/out")
		})
	}
}

// --- E11 (Section 8): safety-check cost vs dependency degree ---------------

func BenchmarkEDNFSafety(b *testing.B) {
	const n, k = 4, 3
	for e := 0; e <= 3; e++ {
		s, q := workload.DependencyConjunction(n, k, e)
		b.Run(fmt.Sprintf("e=%d", e), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			tr.ResetStats()
			for i := 0; i < b.N; i++ {
				if _, err := tr.PSafe(q.Kids); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Stats.ProductTerms)/float64(b.N), "terms/op")
		})
	}
}

// --- E13: ablations ---------------------------------------------------------

func BenchmarkAblationNoPartition(b *testing.B) {
	for _, k := range []int{4, 8} {
		s, q := workload.WorstCaseCompactness(k)
		b.Run(fmt.Sprintf("with-psafe/k=%d", k), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.TDQM(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("no-psafe/k=%d", k), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.TDQMNoPartition(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationFullDNFSafety(b *testing.B) {
	const n, k = 4, 3
	for e := 0; e <= 3; e++ {
		s, q := workload.DependencyConjunction(n, k, e)
		b.Run(fmt.Sprintf("ednf/e=%d", e), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			for i := 0; i < b.N; i++ {
				if _, err := tr.PSafe(q.Kids); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("fulldnf/e=%d", e), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec)
			tr.SetFullDNFSafety(true)
			for i := 0; i < b.N; i++ {
				if _, err := tr.PSafe(q.Kids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: end-to-end mediation over the bookstore catalog ------------------

func BenchmarkUnionMediation(b *testing.B) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(3, 500))
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	q := qparse.MustParse(`[fn = "Tom"] and [ln = "Clancy"]`)
	for i := 0; i < b.N; i++ {
		if _, _, err := med.ExecuteUnion(q, data); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving layer: canonical translation cache and concurrent fan-out -----

// BenchmarkServeCachedVsCold compares a cold mediator translation (full
// TDQM for every source) against a warm canonical-cache hit on the
// Example 3 library workload. The hit skips TDQM entirely — only the
// canonical key is recomputed.
func BenchmarkServeCachedVsCold(b *testing.B) {
	med := mediator.New(sources.NewT1(), sources.NewT2())
	q := qparse.MustParse(`([fac.dept = cs] or [fac.dept = ee]) and [fac.bib contains data(near)mining]`)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := med.Translate(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		ct := serve.NewCachingTranslator(med, 64)
		if _, err := ct.Translate(q); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ct.Translate(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeParallel drives the full serving layer (cached translation
// + concurrent per-source fan-out + merge) with GOMAXPROCS client
// goroutines over the bookstore catalog.
func BenchmarkServeParallel(b *testing.B) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(3, 500))
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	srv := serve.New(med, data, serve.Config{Cache: serve.CacheConfig{Size: 64}})
	queries := []*qtree.Node{
		qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`),
		qparse.MustParse(`[pyear = 1997] and [pmonth = 5]`),
		qparse.MustParse(`([ln = "Clancy"] and [fn = "Tom"]) or [kwd contains web]`),
		qparse.MustParse(`[ti contains java(near)jdk]`),
	}
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := srv.Query(ctx, queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.ReportMetric(srv.Stats().HitRate()*100, "hit%")
}

// BenchmarkServeSharedMatchCache isolates the cross-request matchings cache
// (ISSUE 5 tentpole): the translation cache is pinned to one entry so a
// rotation of distinct queries re-translates on every request, and the only
// cross-request reuse is SCM matchings through the shared MatchCache. "off"
// disables it (Cache.MatchCacheSize < 0); "warm" runs with the default cache and
// reports its hit rate.
func BenchmarkServeSharedMatchCache(b *testing.B) {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	rng := rand.New(rand.NewSource(31))
	cfg := workload.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.4}
	queries := make([]*qtree.Node, 32)
	for i := range queries {
		queries[i] = s.RandomQuery(rng, cfg)
	}
	ctx := context.Background()
	for _, variant := range []struct {
		name string
		size int
	}{{"off", -1}, {"warm", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			med := mediator.New(&sources.Source{Name: "w1", Spec: s.Spec, Eval: s.Eval})
			srv := serve.New(med, nil, serve.Config{Cache: serve.CacheConfig{Size: 1, MatchCacheSize: variant.size}})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Translate(ctx, queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			if mc := srv.MatchCache(); mc != nil {
				b.ReportMetric(mc.Stats().HitRate()*100, "hit%")
			}
		})
	}
}

// BenchmarkTranslateBatchVsLoop compares per-query translation on fresh
// translators (the cold path a naive caller pays) against one TranslateBatch
// call with a shared matchings cache. Both report ns per query via b.N
// scaling: each op is one full pass over the 32-query rotation.
func BenchmarkTranslateBatchVsLoop(b *testing.B) {
	s := workload.New(workload.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1})
	rng := rand.New(rand.NewSource(31))
	cfg := workload.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.4}
	queries := make([]*qtree.Node, 32)
	for i := range queries {
		queries[i] = s.RandomQuery(rng, cfg)
	}
	ctx := context.Background()
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				tr := core.NewTranslator(s.Spec)
				if _, err := tr.Do(ctx, q, core.AlgTDQM); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		mc := core.NewMatchCache(0)
		tr := core.NewTranslator(s.Spec, core.WithMatchCache(mc))
		for i := 0; i < b.N; i++ {
			for _, r := range tr.TranslateBatch(ctx, queries, core.AlgTDQM) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(mc.Stats().HitRate()*100, "hit%")
	})
}

// --- Random complex queries: throughput of the full TDQM pipeline ----------

func BenchmarkTDQMRandom(b *testing.B) {
	s := workload.New(workload.Config{Indep: 4, Pairs: 2, InexactPairs: 1, Triples: 1})
	rng := rand.New(rand.NewSource(21))
	cfg := workload.DefaultQueryConfig()
	queries := make([]*qtree.Node, 64)
	for i := range queries {
		queries[i] = s.RandomQuery(rng, cfg)
	}
	tr := core.NewTranslator(s.Spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TDQM(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tentpole (ISSUE 4): compiled dispatch, memo, parallel branches --------

// BenchmarkDegreeSweep is the e-vs-k cost claim (Sections 4.4, 8) measured
// end to end: TDQM over an n-conjunct query with k leaves per conjunct and
// dependency degree e. With the compiled matcher and translation memo
// (both default-on), terms/op and attempts/op should stay near-flat as k
// grows at fixed e — cost tracks the dependency degree, not query size.
func BenchmarkDegreeSweep(b *testing.B) {
	const n = 4
	for _, e := range []int{0, 2} {
		for _, k := range []int{2, 4, 8} {
			s, q := workload.DependencyConjunction(n, k, e)
			b.Run(fmt.Sprintf("e=%d/k=%d", e, k), func(b *testing.B) {
				tr := core.NewTranslator(s.Spec)
				for i := 0; i < b.N; i++ {
					if _, err := tr.TDQM(q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(tr.Stats.ProductTerms)/float64(b.N), "terms/op")
				b.ReportMetric(float64(tr.Stats.RuleAttempts)/float64(b.N), "attempts/op")
			})
		}
	}
}

// BenchmarkDegreeSweepUncompiled is the same sweep with the compiled
// dispatch engine and memo disabled — the baseline BENCH_matching.json
// compares against.
func BenchmarkDegreeSweepUncompiled(b *testing.B) {
	const n = 4
	for _, e := range []int{0, 2} {
		for _, k := range []int{2, 4, 8} {
			s, q := workload.DependencyConjunction(n, k, e)
			b.Run(fmt.Sprintf("e=%d/k=%d", e, k), func(b *testing.B) {
				tr := core.NewTranslator(s.Spec)
				tr.SetCompiled(false)
				tr.SetMemo(false)
				for i := 0; i < b.N; i++ {
					if _, err := tr.TDQM(q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(tr.Stats.ProductTerms)/float64(b.N), "terms/op")
				b.ReportMetric(float64(tr.Stats.RuleAttempts)/float64(b.N), "attempts/op")
			})
		}
	}
}

// BenchmarkTDQMParallelBranches measures bounded parallel branch mapping on
// a wide disjunction (random workload queries joined under one Or).
func BenchmarkTDQMParallelBranches(b *testing.B) {
	s := workload.New(workload.Config{Indep: 4, Pairs: 2, InexactPairs: 1, Triples: 1})
	rng := rand.New(rand.NewSource(23))
	cfg := workload.DefaultQueryConfig()
	branches := make([]*qtree.Node, 16)
	for i := range branches {
		branches[i] = s.RandomQuery(rng, cfg)
	}
	wide := qtree.Or(branches...).Normalize()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tr := core.NewTranslator(s.Spec, core.WithParallelism(workers))
			for i := 0; i < b.N; i++ {
				if _, err := tr.TDQM(wide); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
