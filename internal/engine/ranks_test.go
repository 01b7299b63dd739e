package engine_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/qparse"
	"repro/internal/sources"
	"repro/internal/values"
)

// TestRanksOrderMatchesString: over two catalogs that share tuple maps and
// hold maps of equal content, comparing ranks must compare renderings, and
// only the ranked maps themselves have a rank.
func TestRanksOrderMatchesString(t *testing.T) {
	a := sources.BookRelation("a", sources.GenBooks(3, 400))
	b := sources.BookRelation("b", sources.GenBooks(4, 100))
	// b also holds a's first 50 maps, and clones of its next 50: the
	// clones render like their originals but are maps of their own.
	b.Tuples = append(b.Tuples, a.Tuples[:50]...)
	for _, t := range a.Tuples[50:100] {
		b.Tuples = append(b.Tuples, t.Clone())
	}
	odd := engine.NewRelation("odd",
		engine.Tuple{"k": values.String("x \"")},
		engine.Tuple{},
		nil,
	)
	ranks := engine.BuildRanks(a, b, a, odd)
	var all []engine.Tuple
	for _, r := range []*engine.Relation{a, b, odd} {
		all = append(all, r.Tuples...)
	}
	rank := make([]int32, len(all))
	render := make([]string, len(all))
	for i, tup := range all {
		r, ok := ranks.Rank(tup)
		if !ok {
			t.Fatalf("tuple %s has no rank", tup)
		}
		rank[i], render[i] = r, tup.String()
	}
	for i := range all {
		for j := range all {
			if (rank[i] < rank[j]) != (render[i] < render[j]) || (rank[i] == rank[j]) != (render[i] == render[j]) {
				t.Fatalf("ranks %d, %d disagree with renderings\n%s\n%s", rank[i], rank[j], render[i], render[j])
			}
		}
	}
	if _, ok := ranks.Rank(a.Tuples[0].Clone()); ok {
		t.Error("a clone of a ranked tuple has a rank")
	}
}

// TestSelectErrorTextAgrees: an evaluation error reads the same whichever
// selection path meets it: Select's scan, SelectIndexed with and without a
// usable index, SelectAccess, and a column snapshot's scan and probe.
func TestSelectErrorTextAgrees(t *testing.T) {
	catalog := sources.BookRelation("catalog", sources.GenBooks(7, 200))
	publisher, ok := catalog.Tuples[0]["publisher"].(values.String)
	if !ok {
		t.Fatalf("publisher = %v", catalog.Tuples[0]["publisher"])
	}
	q := qparse.MustParse(`[publisher = "` + string(publisher) + `"] and [pyear < "abc"]`)
	ev := engine.NewEvaluator()
	_, err := catalog.Select(q, ev)
	if err == nil {
		t.Fatal("scan: no error")
	}
	want := err.Error()
	paths := map[string]func() (*engine.Relation, error){
		"indexed/probed": func() (*engine.Relation, error) {
			return catalog.SelectIndexed(q, ev, engine.BuildIndexes(catalog, "publisher"))
		},
		"indexed/unprobed": func() (*engine.Relation, error) {
			return catalog.SelectIndexed(q, ev, engine.BuildIndexes(catalog, "isbn"))
		},
		"access": func() (*engine.Relation, error) {
			return catalog.SelectAccess(context.Background(), q, ev, engine.BuildAccess(catalog))
		},
		"snapshot/scanned": func() (*engine.Relation, error) {
			_, _, err := engine.NewSnapshot(catalog).Select(nil, q, ev, nil)
			return nil, err
		},
		"snapshot/probed": func() (*engine.Relation, error) {
			_, _, err := engine.NewSnapshot(catalog).Select(nil, q, ev, engine.BuildIndexes(catalog, "publisher"))
			return nil, err
		},
	}
	for name, sel := range paths {
		if _, err := sel(); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}
