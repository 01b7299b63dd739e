package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/rules"
	"repro/internal/workload"
)

// composeFixture builds a two-hop chain, its composed spec, and a query
// batch over the base vocabulary.
func composeFixture(t *testing.T, seed int64) (*workload.Scenario, *rules.Spec, []*qtree.Node) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := workload.New(workload.Config{Indep: 2, Pairs: 1, InexactPairs: 1})
	ch := workload.NewChain(s, rng)
	comp, err := rules.Compose(s.Spec, ch.Spec2)
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	qcfg := workload.DefaultQueryConfig()
	var qs []*qtree.Node
	for i := 0; i < 8; i++ {
		qs = append(qs, s.RandomQuery(rng, qcfg))
	}
	return s, comp, qs
}

// TestComposedSpecCacheInvalidate checks that a composed spec is a
// first-class citizen of the shared matchings cache: translations through
// it populate a MatchCache under its own identity, Invalidate on the
// composed spec removes exactly its entries while the hop specs' entries
// survive, and re-translation after invalidation is byte-identical.
func TestComposedSpecCacheInvalidate(t *testing.T) {
	s, comp, qs := composeFixture(t, 5)
	cache := core.NewMatchCache(0)

	translate := func(spec *rules.Spec, q *qtree.Node) string {
		tr := core.NewTranslator(spec, core.WithMatchCache(cache))
		out, err := tr.Translate(q, core.AlgTDQM)
		if err != nil {
			t.Fatalf("translate: %v", err)
		}
		return out.String()
	}

	base := make([]string, len(qs))
	for i, q := range qs {
		translate(s.Spec, q) // populate hop-spec entries
		base[i] = translate(comp, q)
	}
	if cache.Len() == 0 {
		t.Fatalf("shared MatchCache stayed empty")
	}

	cacheBefore := cache.Len()
	nc := cache.Invalidate(comp)
	if nc == 0 {
		t.Fatalf("Invalidate(composed) removed nothing")
	}
	if got, want := cache.Len(), cacheBefore-nc; got != want {
		t.Fatalf("cache.Len() = %d after invalidation, want %d", got, want)
	}
	// The hop spec's entries must survive: invalidating the composed spec
	// again removes nothing.
	if n := cache.Invalidate(comp); n != 0 {
		t.Fatalf("second Invalidate(composed) removed %d cache entries", n)
	}
	if cache.Len() == 0 {
		t.Fatalf("Invalidate(composed) wiped the hop spec's cache entries too")
	}

	for i, q := range qs {
		if got := translate(comp, q); got != base[i] {
			t.Fatalf("q%d: re-translation after invalidation differs\ngot  %s\nwant %s", i, got, base[i])
		}
	}
}

// TestComposedSpecPlanEquivalence locks the translation contract on
// composed specs, whose compiled dispatch and static translation plan are
// built from the composed rules: translations sharing one MatchCache (cold
// and warm) are byte-identical to cache-free translations, including Stats.
func TestComposedSpecPlanEquivalence(t *testing.T) {
	_, comp, qs := composeFixture(t, 9)
	cache := core.NewMatchCache(0)
	for i, q := range qs {
		bare := core.NewTranslator(comp)
		wantQ, wantF, err := bare.TranslateWithFilter(q, core.AlgTDQM)
		if err != nil {
			t.Fatalf("q%d: bare: %v", i, err)
		}
		for pass := 0; pass < 2; pass++ {
			tr := core.NewTranslator(comp, core.WithMatchCache(cache))
			gotQ, gotF, err := tr.TranslateWithFilter(q, core.AlgTDQM)
			if err != nil {
				t.Fatalf("q%d pass %d: cached: %v", i, pass, err)
			}
			if gotQ.String() != wantQ.String() || gotF.String() != wantF.String() {
				t.Fatalf("q%d pass %d: cached translation differs\ngot  %s | %s\nwant %s | %s",
					i, pass, gotQ, gotF, wantQ, wantF)
			}
			if bare.Stats != tr.Stats {
				t.Fatalf("q%d pass %d: Stats differ with the cache: %+v vs %+v", i, pass, tr.Stats, bare.Stats)
			}
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("repeated composed-spec translations never hit the shared cache")
	}
}
