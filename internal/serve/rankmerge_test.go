package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// checkUnion asserts that srv.Query answers q exactly as med.ExecuteUnion
// does: the same tuples rendered the same, in the same order, and a nil
// Tuples slice when there are no answers. sameMaps also demands the very
// maps ExecuteUnion returns, i.e. the same first occurrences.
func checkUnion(t *testing.T, srv *Server, med *mediator.Mediator, data map[string]*engine.Relation, q *qtree.Node, sameMaps bool) *engine.Relation {
	t.Helper()
	want, _, err := med.ExecuteUnion(q, data)
	if err != nil {
		t.Fatalf("ExecuteUnion %s: %v", q, err)
	}
	got, err := srv.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("Query %s: %v", q, err)
	}
	if render(got) != render(want) {
		t.Fatalf("Query %s:\n%s\nExecuteUnion:\n%s", q, render(got), render(want))
	}
	if (got.Tuples == nil) != (want.Tuples == nil) || got.Name != want.Name {
		t.Fatalf("Query %s: name %q, nil tuples %v; ExecuteUnion: %q, %v",
			q, got.Name, got.Tuples == nil, want.Name, want.Tuples == nil)
	}
	if sameMaps {
		for i := range want.Tuples {
			if mapID(got.Tuples[i]) != mapID(want.Tuples[i]) {
				t.Fatalf("Query %s: answer %d is another map than ExecuteUnion's first occurrence", q, i)
			}
		}
	}
	return got
}

func mapID(t engine.Tuple) uintptr { return reflect.ValueOf(t).Pointer() }

// checkRanked asserts that srv built its rank table over every universe.
func checkRanked(t *testing.T, srv *Server, data map[string]*engine.Relation) {
	t.Helper()
	if srv.ranks == nil {
		t.Fatal("no rank table after union queries with answers")
	}
	for name, rel := range data {
		for _, tup := range rel.Tuples {
			if _, ok := srv.ranks.Rank(tup); !ok {
				t.Fatalf("a tuple of %s's universe has no rank", name)
			}
		}
	}
}

// cloningExecutor is an executor that builds its own tuples for the named
// sources, as a remote transport would: equal content, maps of its own.
func cloningExecutor(clone ...string) SourceExecutor {
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		out, err := DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
		if err != nil {
			return nil, err
		}
		for _, name := range clone {
			if name == source {
				own := &engine.Relation{Name: out.Name}
				for _, t := range out.Tuples {
					own.Tuples = append(own.Tuples, t.Clone())
				}
				return own, nil
			}
		}
		return out, nil
	}
}

// TestRankedMergeMatchesExecuteUnion pins the materialized union merge to
// ExecuteUnion: over the mediatord-shaped universe, with executors that
// build their own tuples (the rendering merge), over sources with universes
// of their own, over a universe holding maps of equal content, and on an
// empty answer.
func TestRankedMergeMatchesExecuteUnion(t *testing.T) {
	queries := append([]string{`[ln = "Nobody"]`}, mixedWorkload...)
	run := func(t *testing.T, srv *Server, med *mediator.Mediator, data map[string]*engine.Relation, sameMaps bool) {
		for _, s := range queries {
			checkUnion(t, srv, med, data, qparse.MustParse(s), sameMaps)
		}
	}
	t.Run("universe", func(t *testing.T) {
		srv, med, data := bookstoreServer(Config{})
		run(t, srv, med, data, true)
		checkRanked(t, srv, data)
	})
	t.Run("clone-executor", func(t *testing.T) {
		for _, clone := range [][]string{{"clbooks"}, {"amazon", "clbooks"}} {
			srv, med, data := bookstoreServer(Config{Executor: cloningExecutor(clone...)})
			run(t, srv, med, data, false)
			got, err := srv.Query(context.Background(), qparse.MustParse(`[publisher = "oreilly"]`))
			if err != nil || got.Len() == 0 {
				t.Fatalf("Query: %d answers, %v", got.Len(), err)
			}
			if _, ranked := srv.ranks.Rank(got.Tuples[0]); ranked && len(clone) == 2 {
				t.Fatal("answer came from the universe, not from the executor's own tuples")
			}
		}
	})
	t.Run("separate-universes", func(t *testing.T) {
		a := sources.BookRelation("a", sources.GenBooks(11, 240))
		b := sources.BookRelation("b", sources.GenBooks(12, 200))
		// b shares some of a's maps and holds clones of others.
		b.Tuples = append(b.Tuples, a.Tuples[:40]...)
		for _, t := range a.Tuples[40:80] {
			b.Tuples = append(b.Tuples, t.Clone())
		}
		med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
		med.Indexes = map[string]engine.IndexSet{"amazon": engine.BuildIndexes(a, "publisher", "isbn", "subject")}
		data := map[string]*engine.Relation{"amazon": a, "clbooks": b}
		srv := New(med, data, Config{})
		run(t, srv, med, data, true)
		checkRanked(t, srv, data)
	})
	t.Run("equal-content", func(t *testing.T) {
		// Every third book is preceded by a clone, so the clone is the
		// first occurrence and must be the answer.
		catalog := sources.BookRelation("catalog", sources.GenBooks(11, 240))
		u := engine.NewRelation("catalog")
		clones := make(map[uintptr]bool)
		for i, t := range catalog.Tuples {
			if i%3 == 0 {
				c := t.Clone()
				clones[mapID(c)] = true
				u.Tuples = append(u.Tuples, c)
			}
			u.Tuples = append(u.Tuples, t)
		}
		med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
		data := map[string]*engine.Relation{"amazon": u, "clbooks": u}
		srv := New(med, data, Config{})
		run(t, srv, med, data, true)
		got := checkUnion(t, srv, med, data, qparse.MustParse(`[pyear = 1997]`), true)
		n := 0
		for _, t := range got.Tuples {
			if clones[mapID(t)] {
				n++
			}
		}
		if n == 0 || n == got.Len() {
			t.Fatalf("%d of %d answers are clones; want some, not all", n, got.Len())
		}
	})
}

// TestRankedMergeConcurrentFirstQueries sends 16 first queries at once at a
// fresh server, so they race to build the rank table. Run under -race.
func TestRankedMergeConcurrentFirstQueries(t *testing.T) {
	srv, med, data := bookstoreServer(Config{Workers: 4})
	queries := make([]*qtree.Node, 16)
	want := make([]string, len(queries))
	for i := range queries {
		queries[i] = qparse.MustParse(mixedWorkload[i%len(mixedWorkload)])
		rel, _, err := med.ExecuteUnion(queries[i], data)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = render(rel)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rel, err := srv.Query(context.Background(), queries[i])
			if err != nil {
				t.Error(err)
				return
			}
			if render(rel) != want[i] {
				t.Errorf("query %d: answer differs from ExecuteUnion", i)
			}
		}(i)
	}
	close(start)
	wg.Wait()
}

// TestRankedMergeAllocs bounds the allocations of a 500-book union whose
// branches return 426 tuples (213 answers). The ranked merge needs about 70
// allocations per query in all; rendering every branch tuple costs at least
// one each (1 375 per query in all), so the ceiling fails if the ranked
// merge stops running.
func TestRankedMergeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation ceiling")
	}
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	catalog := sources.BookRelation("catalog", sources.GenBooks(5, 500))
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	srv := New(med, data, Config{})
	q := qparse.MustParse(`[pyear = 1997] or [pyear = 1996]`)
	ctx := context.Background()
	got, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if got.Len() != 213 || allocs > rankedMergeAllocs {
		t.Fatalf("%d answers, %.0f allocations per query; want 213 answers, at most %d allocations",
			got.Len(), allocs, rankedMergeAllocs)
	}
}

const rankedMergeAllocs = 200
