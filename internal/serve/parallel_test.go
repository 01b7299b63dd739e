package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/qparse"
	"repro/internal/qtree"
)

// TestParallelTranslationUnderCache is the cache-interplay check for
// translator-level parallelism: a serving stack whose mediator fans out
// per-branch mapping (Mediator.Parallelism) must answer the mixed workload
// byte-identically to a fully sequential stack, with identical per-source
// translations — the translation cache stores whatever the parallel
// translator produced, so any nondeterminism would surface as a divergent
// cached answer. Run under -race in CI this also exercises intra-translation
// parallelism nested inside serve's own request/source fan-out.
func TestParallelTranslationUnderCache(t *testing.T) {
	seqSrv, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 32}, Workers: 4})
	parSrv, parMed, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 32}, Workers: 4})
	parMed.Parallelism = 4

	queries := make([]*qtree.Node, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	ctx := context.Background()
	for i, s := range mixedWorkload {
		queries[i] = qparse.MustParse(s)
		rel, err := seqSrv.Query(ctx, queries[i])
		if err != nil {
			t.Fatalf("sequential %s: %v", s, err)
		}
		want[i] = render(rel)

		// Translation-level equivalence, branch by branch.
		seqTr, err := seqSrv.Translate(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		parTr, err := parSrv.Translate(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(seqTr.Sources) != len(parTr.Sources) {
			t.Fatalf("%s: source count differs", s)
		}
		for j := range seqTr.Sources {
			if !parTr.Sources[j].Query.EqualCanonical(seqTr.Sources[j].Query) {
				t.Errorf("%s: parallel translation for %s differs\n got: %s\nwant: %s",
					s, seqTr.Sources[j].Source.Name, parTr.Sources[j].Query, seqTr.Sources[j].Query)
			}
			if !parTr.Sources[j].Residue.EqualCanonical(seqTr.Sources[j].Residue) {
				t.Errorf("%s: parallel residue for %s differs", s, seqTr.Sources[j].Source.Name)
			}
		}
		if !parTr.Filter.EqualCanonical(seqTr.Filter) {
			t.Errorf("%s: parallel filter differs\n got: %s\nwant: %s", s, parTr.Filter, seqTr.Filter)
		}
	}

	// Hammer the parallel stack concurrently; answers must match the
	// sequential baseline and the cache must still be effective.
	const goroutines, rounds = 8, 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(queries)
				rel, err := parSrv.Query(ctx, queries[k])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := render(rel); got != want[k] {
					t.Errorf("goroutine %d: parallel-translation result for %q diverged", g, mixedWorkload[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if parSrv.Translator().Hits() == 0 {
		t.Error("expected translation-cache hits under a repeating workload")
	}
}
