package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// soakDuration bounds the wall-clock of TestSoakMixedWorkload; run under
// -race it is the serving layer's data-race soak.
func soakDuration() time.Duration {
	if testing.Short() {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

// librarySoakQueries exercises the join-style path, including a permuted
// duplicate sharing one canonical cache entry.
var librarySoakQueries = []string{
	`[fac.ln = pub.ln] and [fac.fn = pub.fn] and [fac.bib contains data(near)mining] and [fac.dept = cs]`,
	`[fac.dept = cs] and [fac.bib contains data(near)mining] and [fac.fn = pub.fn] and [fac.ln = pub.ln]`,
	`([fac.dept = cs] or [fac.dept = ee]) and [fac.bib contains data(near)mining]`,
}

// TestSoakMixedWorkload hammers two serving stacks — union-style bookstore
// Query and join-style library QueryJoin — from 16 goroutines for ~2s with a
// deliberately tiny translation cache, so entries churn through eviction the
// whole time. Every answer must stay byte-identical to its sequential
// baseline, and the cache accounting must balance: every request is exactly
// one cache lookup, so hits + misses + shared == requests on both servers.
func TestSoakMixedWorkload(t *testing.T) {
	tiny := Config{Cache: CacheConfig{Size: 2}, Workers: 4}
	union, med, data := bookstoreServer(tiny)

	jmed := mediator.New(sources.NewT1(), sources.NewT2())
	jmed.Glue = sources.LibraryGlue()
	people, papers := sources.GenLibrary(42, 10, 25)
	jdata := map[string]*engine.Relation{
		"t1": sources.T1Relation(people, papers),
		"t2": sources.T2Relation(people),
	}
	join := New(jmed, jdata, tiny)

	unionQs := make([]*qtree.Node, len(mixedWorkload))
	unionWant := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		unionQs[i] = qparse.MustParse(s)
		rel, _, err := med.ExecuteUnion(unionQs[i], data)
		if err != nil {
			t.Fatalf("sequential union baseline %q: %v", s, err)
		}
		unionWant[i] = render(rel)
	}
	joinQs := make([]*qtree.Node, len(librarySoakQueries))
	joinWant := make([]string, len(librarySoakQueries))
	for i, s := range librarySoakQueries {
		joinQs[i] = qparse.MustParse(s)
		rel, _, err := jmed.ExecuteJoin(joinQs[i], jdata)
		if err != nil {
			t.Fatalf("sequential join baseline %q: %v", s, err)
		}
		joinWant[i] = render(rel)
	}

	const goroutines = 16
	deadline := time.Now().Add(soakDuration())
	ctx := context.Background()
	var unionReqs, joinReqs atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if (g+i)%3 == 0 { // mixed workload: every third request joins
					k := (g + i) % len(joinQs)
					rel, err := join.QueryJoin(ctx, joinQs[k])
					if err != nil {
						t.Errorf("goroutine %d: QueryJoin(%q): %v", g, librarySoakQueries[k], err)
						return
					}
					joinReqs.Add(1)
					if render(rel) != joinWant[k] {
						t.Errorf("goroutine %d: QueryJoin(%q) diverged from sequential baseline", g, librarySoakQueries[k])
						return
					}
				} else {
					k := (g + i) % len(unionQs)
					rel, err := union.Query(ctx, unionQs[k])
					if err != nil {
						t.Errorf("goroutine %d: Query(%q): %v", g, mixedWorkload[k], err)
						return
					}
					unionReqs.Add(1)
					if render(rel) != unionWant[k] {
						t.Errorf("goroutine %d: Query(%q) diverged from sequential baseline", g, mixedWorkload[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, sv := range []struct {
		name string
		srv  *Server
		reqs uint64
	}{{"union", union, unionReqs.Load()}, {"join", join, joinReqs.Load()}} {
		st := sv.srv.Stats()
		if st.Requests != sv.reqs {
			t.Errorf("%s server: Requests = %d, want %d", sv.name, st.Requests, sv.reqs)
		}
		if got := st.CacheHits + st.CacheMisses + st.CacheShared; got != sv.reqs {
			t.Errorf("%s server: hits+misses+shared = %d, want %d (hits=%d misses=%d shared=%d)",
				sv.name, got, sv.reqs, st.CacheHits, st.CacheMisses, st.CacheShared)
		}
		if st.Errors != 0 || st.Timeouts != 0 {
			t.Errorf("%s server: Errors = %d, Timeouts = %d, want 0", sv.name, st.Errors, st.Timeouts)
		}
		if st.CacheEntries > tiny.Cache.Size {
			t.Errorf("%s server: CacheEntries = %d exceeds capacity %d", sv.name, st.CacheEntries, tiny.Cache.Size)
		}
	}
	// The tiny cache must have churned: more distinct canonical keys exist
	// than capacity on the union side (8 keys, capacity 2).
	if st := union.Stats(); st.CacheEvictions == 0 {
		t.Error("union server: expected eviction churn with capacity 2")
	}
}
