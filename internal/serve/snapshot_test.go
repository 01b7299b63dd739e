package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// snapshotStats sums the counters of srv's column snapshots; ok is false
// when the server built none.
func snapshotStats(srv *Server) (st engine.SnapshotStats, ok bool) {
	for _, snap := range srv.snaps {
		if snap == nil {
			continue
		}
		s := snap.Stats()
		st.Compiled += s.Compiled
		st.Declined += s.Declined
		ok = true
	}
	return st, ok
}

// TestNativeSelectionPath pins which servers select on column snapshots:
// the default one does, and answers as ExecuteUnion does; one with a custom
// executor or with access paths keeps the tuple path and builds none.
func TestNativeSelectionPath(t *testing.T) {
	srv, med, data := bookstoreServer(Config{})
	for _, s := range mixedWorkload {
		checkUnion(t, srv, med, data, qparse.MustParse(s), true)
	}
	if st, ok := snapshotStats(srv); !ok || st.Compiled == 0 || st.Declined != 0 {
		t.Fatalf("default server: snapshots %v, stats %+v; want compiled selections and no decline", ok, st)
	}
	for name, cfg := range map[string]Config{
		"executor": {Executor: DefaultExecutor},
		"index":    {Index: true},
	} {
		srv, med, data := bookstoreServer(cfg)
		for _, s := range mixedWorkload {
			checkUnion(t, srv, med, data, qparse.MustParse(s), true)
		}
		if _, ok := snapshotStats(srv); ok {
			t.Errorf("%s: built column snapshots", name)
		}
	}
}

// TestNativeSelectionDeclinesForeignBucket: an IndexSet built over other
// maps than the universe's (here clones of the catalog) probes buckets the
// snapshot cannot hold, so those requests take the tuple path and still
// answer as ExecuteUnion does, with the universe's maps wherever the probe
// did not run.
func TestNativeSelectionDeclinesForeignBucket(t *testing.T) {
	catalog := sources.BookRelation("catalog", sources.GenBooks(11, 240))
	clones := engine.NewRelation("catalog")
	for _, t := range catalog.Tuples {
		clones.Tuples = append(clones.Tuples, t.Clone())
	}
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	med.Indexes = map[string]engine.IndexSet{"amazon": engine.BuildIndexes(clones, "publisher")}
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	srv := New(med, data, Config{})
	for _, s := range append([]string{`[publisher = "oreilly"]`}, mixedWorkload...) {
		checkUnion(t, srv, med, data, qparse.MustParse(s), false)
	}
	if st, _ := snapshotStats(srv); st.Declined == 0 || st.Compiled == 0 {
		t.Fatalf("stats %+v: want both declined and compiled selections", st)
	}
}

// TestNativeSelectionErrorText: a request whose selection fails reports the
// error ExecuteUnion reports, on the probed and on the scanned path.
func TestNativeSelectionErrorText(t *testing.T) {
	srv, med, data := bookstoreServer(Config{})
	for _, s := range []string{
		`[publisher = "oreilly"] and [pyear < "abc"]`,
		`[pyear < "abc"]`,
		`[kwd contains web] or [pyear < "abc"]`,
	} {
		q := qparse.MustParse(s)
		_, _, werr := med.ExecuteUnion(q, data)
		_, gerr := srv.Query(context.Background(), q)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("%s: Query err %v, ExecuteUnion err %v", s, gerr, werr)
		}
	}
}

// TestNativeSelectionConcurrentFirstQueries sends union and join first
// queries at once at fresh servers, so they race to build the rank table
// and the snapshots and then share them; the join-only server builds no
// rank table. Run under -race.
func TestNativeSelectionConcurrentFirstQueries(t *testing.T) {
	books, bmed, bdata := bookstoreServer(Config{Workers: 4})
	lmed := mediator.New(sources.NewT1(), sources.NewT2())
	lmed.Glue = sources.LibraryGlue()
	people, papers := sources.GenLibrary(7, 10, 25)
	ldata := map[string]*engine.Relation{
		"t1": sources.T1Relation(people, papers),
		"t2": sources.T2Relation(people),
	}
	library := New(lmed, ldata, Config{Workers: 4})

	type call struct {
		q     *qtree.Node
		join  bool
		want  string
		query func(context.Context, *qtree.Node) (*engine.Relation, error)
	}
	var calls []call
	for i := 0; i < 12; i++ {
		q := qparse.MustParse(mixedWorkload[i%len(mixedWorkload)])
		want, _, err := bmed.ExecuteUnion(q, bdata)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{q: q, want: render(want), query: books.Query})
	}
	for i := 0; i < 12; i++ {
		q := qparse.MustParse(joinShapes[i%len(joinShapes)])
		want, _, err := lmed.ExecuteJoin(q, ldata)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{q: q, join: true, want: render(want), query: library.QueryJoin})
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := c.query(context.Background(), c.q)
			if err != nil {
				t.Error(err)
				return
			}
			if render(got) != c.want {
				t.Errorf("call %d (join %v) %s: answer differs from the mediator's", i, c.join, c.q)
			}
		}()
	}
	close(start)
	wg.Wait()
	for name, srv := range map[string]*Server{"books": books, "library": library} {
		if st, ok := snapshotStats(srv); !ok || st.Compiled == 0 {
			t.Errorf("%s: no compiled selection (%+v)", name, st)
		}
	}
	if library.ranks != nil {
		t.Error("a server that only answered joins built the union rank table")
	}
}
