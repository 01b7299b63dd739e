package querymap_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/querymap"
)

func TestValueConstructors(t *testing.T) {
	if got := querymap.Str("x").String(); got != `"x"` {
		t.Errorf("Str = %s", got)
	}
	if got := querymap.Int(42).String(); got != "42" {
		t.Errorf("Int = %s", got)
	}
	if got := querymap.Date(1997, 5, 0).String(); got != "May/97" {
		t.Errorf("Date = %s", got)
	}
	p, err := querymap.Pattern("data(near)mining")
	if err != nil || p.Kind() != "pattern" {
		t.Errorf("Pattern = %v, %v", p, err)
	}
}

func TestValueExtractors(t *testing.T) {
	if s, ok := querymap.StringValue(querymap.Str("x")); !ok || s != "x" {
		t.Errorf("StringValue = %q, %v", s, ok)
	}
	if _, ok := querymap.StringValue(querymap.Int(1)); ok {
		t.Error("StringValue accepted an int")
	}
	if i, ok := querymap.IntValue(querymap.Int(7)); !ok || i != 7 {
		t.Errorf("IntValue = %d, %v", i, ok)
	}
	if f, ok := querymap.FloatValue(querymap.Int(7)); !ok || f != 7 {
		t.Errorf("FloatValue = %g, %v", f, ok)
	}
}

func TestQueryConstructors(t *testing.T) {
	a, err := querymap.ParseConstraint(`[x = 1]`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := querymap.ParseConstraint(`y = 2`)
	if err != nil {
		t.Fatal(err)
	}
	q := querymap.NewAnd(querymap.NewLeaf(a),
		querymap.NewOr(querymap.NewLeaf(b), querymap.TrueQuery()))
	// b ∨ TRUE = TRUE, TRUE ∧ a = a.
	if q.Size() != 1 {
		t.Errorf("constructed query = %s (size %d), want single leaf", q, q.Size())
	}
}

func TestSimplifyExported(t *testing.T) {
	q := querymap.MustParse(`[a = 1] or ([a = 1] and [b = 2])`)
	if got := querymap.Simplify(q); got.Size() != 1 {
		t.Errorf("Simplify = %s", got)
	}
	y := querymap.MustParse(`[a = 1] and [b = 2]`)
	x := querymap.MustParse(`[a = 1]`)
	if !querymap.Implies(y, x) || querymap.Implies(x, y) {
		t.Error("Implies re-export misbehaves")
	}
}

func TestPrebuiltSources(t *testing.T) {
	for _, src := range []*querymap.Source{
		querymap.Amazon(), querymap.Clbooks(), querymap.LibraryT1(),
		querymap.LibraryT2(), querymap.MapSource(), querymap.Cars(), querymap.Metric(),
	} {
		if src.Name == "" || src.Spec == nil || len(src.Spec.Rules) == 0 {
			t.Errorf("prebuilt source %+v incomplete", src)
		}
		if ps := querymap.LintSpec(src.Spec); len(ps) != 0 {
			t.Errorf("%s lint findings: %v", src.Name, ps)
		}
	}
}

func TestFormatSpecExported(t *testing.T) {
	text := querymap.FormatSpec(querymap.Amazon().Spec)
	if !strings.Contains(text, "rule R6") {
		t.Errorf("FormatSpec output missing rules:\n%.200s", text)
	}
	// The formatted text must reparse.
	if _, err := querymap.ParseRules(text); err != nil {
		t.Errorf("formatted spec does not reparse: %v", err)
	}
}

// TestConcurrentTranslators: a Spec is read-only after construction, so
// independent Translators over one shared Spec may run concurrently.
// Run with -race to validate.
func TestConcurrentTranslators(t *testing.T) {
	spec := querymap.Amazon().Spec
	queries := []string{
		`[ln = "Clancy"] and [fn = "Tom"]`,
		`([ln = "A"] or [ln = "B"]) and [fn = "C"]`,
		`[pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`,
		`[kwd contains www] or [category = "D.3"]`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := querymap.NewTranslator(spec)
			for i := 0; i < 50; i++ {
				q := querymap.MustParse(queries[(g+i)%len(queries)])
				if _, err := tr.Translate(q, querymap.AlgTDQM); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCanonicalKeyExported(t *testing.T) {
	a := querymap.MustParse(`[ln = "Clancy"] and ([fn = "Tom"] or [pyear = 1997])`)
	b := querymap.MustParse(`([pyear = 1997] or [fn = "Tom"]) and [ln = "Clancy"]`)
	if querymap.CanonicalKey(a) != querymap.CanonicalKey(b) {
		t.Error("permuted-but-equivalent queries should share a canonical key")
	}
	c := querymap.MustParse(`[ln = "Clancy"] or ([fn = "Tom"] and [pyear = 1997])`)
	if querymap.CanonicalKey(a) == querymap.CanonicalKey(c) {
		t.Error("inequivalent queries should have distinct canonical keys")
	}
	if querymap.Canonicalize(a).String() != querymap.Canonicalize(b).String() {
		t.Error("canonical trees of equivalent queries should render identically")
	}
}

func TestNewCachingTranslatorExported(t *testing.T) {
	med := querymap.NewMediator(querymap.Amazon(), querymap.Clbooks())
	ct := querymap.NewCachingTranslator(med, 16)
	q1 := querymap.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
	q2 := querymap.MustParse(`[fn = "Tom"] and [ln = "Clancy"]`)
	tr1, err := ct.Translate(q1)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := ct.Translate(q2)
	if err != nil {
		t.Fatal(err)
	}
	if tr1 != tr2 {
		t.Error("permuted query should hit the canonical cache entry")
	}
	if ct.Hits() != 1 || ct.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", ct.Hits(), ct.Misses())
	}
}

func TestResilienceSurfaceExported(t *testing.T) {
	med := querymap.NewMediator(querymap.Amazon(), querymap.Clbooks())
	data := map[string]*querymap.Relation{
		"amazon":  querymap.NewRelation("amazon"),
		"clbooks": querymap.NewRelation("clbooks"),
	}
	srv := querymap.Serve(med, data,
		querymap.ServeCacheSize(8),
		querymap.ServeCacheAdmission(true),
		querymap.ServeBreaker(true),
		querymap.ServeRetries(2),
		querymap.ServeHedge(true),
		querymap.ServeResilienceSeed(7),
	)
	out, err := srv.Query(context.Background(), querymap.MustParse(`[ln = "Clancy"]`))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty sources answered %d tuples", out.Len())
	}
	st := srv.Stats()
	if st.BreakerTrips != 0 || st.Retries != 0 {
		t.Errorf("clean run recorded trips=%d retries=%d, want 0/0", st.BreakerTrips, st.Retries)
	}
	for _, name := range []string{"amazon", "clbooks"} {
		if got := st.Sources[name].BreakerState; got != "closed" {
			t.Errorf("source %s breaker state = %q, want closed", name, got)
		}
	}

	// The grouped ServeConfig form builds the same server shape.
	srv2 := querymap.NewServer(med, data, querymap.ServeConfig{
		Cache: querymap.ServeCacheConfig{Size: 8, Admission: true},
		Resilience: querymap.ServeResilienceConfig{
			Breaker:       true,
			BreakerConfig: querymap.BreakerConfig{MinSamples: 4},
			Retries:       2,
			RetryConfig:   querymap.RetryConfig{BaseDelay: time.Millisecond},
			Hedge:         true,
			HedgeConfig:   querymap.HedgeConfig{MinDelay: time.Millisecond},
		},
	})
	if _, err := srv2.Query(context.Background(), querymap.MustParse(`[ln = "Clancy"]`)); err != nil {
		t.Fatal(err)
	}

	// The typed sentinels must be wired to their internal roots.
	for name, sentinel := range map[string]error{
		"ErrInjected":    querymap.ErrInjected,
		"ErrBreakerOpen": querymap.ErrBreakerOpen,
	} {
		if sentinel == nil {
			t.Errorf("%s is nil", name)
		}
	}
}
