package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/workload"
)

// Workload names. unionBooks is not a workload of its own: it names the
// in-process union stack that union-http's traced run measures next to the
// daemon, at identical inputs, for the layers below mediatord.
const (
	unionBooks    = "union-books"
	translateZipf = "translate-zipf"
	joinLibrary   = "join-library"
	unionHTTP     = "union-http"
)

var workloadNames = []string{translateZipf, joinLibrary, unionHTTP}

// workloadClients is each workload's closed-loop client count, which its
// entry in BENCHMARK.json records. union-http runs one: its clients and
// the daemon share the host's two vCPUs, and with two clients the client
// side competes with the daemon it measures.
var workloadClients = map[string]int{translateZipf: 2, joinLibrary: 2, unionHTTP: 1}

// counters are the cache counters of a serving stack (serve.Stats).
type counters struct {
	hits, misses, shared   uint64
	planHits, planMisses   uint64
	matchHits, matchMisses uint64
}

func countersOf(s serve.Stats) counters {
	return counters{
		hits: s.CacheHits, misses: s.CacheMisses, shared: s.CacheShared,
		planHits: s.PlanHits, planMisses: s.PlanMisses,
		matchHits: s.MatchCacheHits, matchMisses: s.MatchCacheMisses,
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		hits: c.hits - o.hits, misses: c.misses - o.misses, shared: c.shared - o.shared,
		planHits: c.planHits - o.planHits, planMisses: c.planMisses - o.planMisses,
		matchHits: c.matchHits - o.matchHits, matchMisses: c.matchMisses - o.matchMisses,
	}
}

func (c counters) plus(o counters) counters {
	return counters{
		hits: c.hits + o.hits, misses: c.misses + o.misses, shared: c.shared + o.shared,
		planHits: c.planHits + o.planHits, planMisses: c.planMisses + o.planMisses,
		matchHits: c.matchHits + o.matchHits, matchMisses: c.matchMisses + o.matchMisses,
	}
}

func (c counters) lookups() float64 { return float64(c.hits + c.misses + c.shared) }

// bench is one workload ready to run: its generated inputs and the
// operations on the stack that serves them.
type bench struct {
	pool  []string    // distinct query texts, indexed by request.id
	rings [][]request // per-client request sequences
	// build builds a fresh stack, replacing the previous one, and returns
	// the time the program's set-up took.
	build func(exec serve.SourceExecutor) (time.Duration, error)
	// check compares the stack's answer to every distinct query that is
	// requested with the sequential oracle's, and returns the oracle's
	// answer counts (-1 for queries never requested).
	check    func() ([]int, error)
	target   func() target
	meter    func() meter
	counters func() (counters, error)
	// heapLive returns the live heap the stack keeps, and drop releases
	// the stack, stopping any process it runs.
	heapLive func() (uint64, error)
	drop     func()
}

// prepare generates a workload's inputs from seed for clients clients.
func prepare(name string, seed int64, clients int, mediatord string) (*bench, error) {
	switch name {
	case unionBooks:
		return prepareBooks(seed, clients), nil
	case joinLibrary:
		return prepareLibrary(seed, clients), nil
	case translateZipf:
		return prepareZipf(seed, clients), nil
	case unionHTTP:
		return prepareHTTP(seed, clients, mediatord), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// catalog generates union-http's books and query pool.
func catalog(seed int64) ([]sources.Book, int64, []string) {
	catSeed := subSeed(seed, seedCatalog)
	books := sources.GenBooks(catSeed, catalogBooks)
	pool := drawPool(rand.New(rand.NewSource(subSeed(seed, seedQueries))), bookTemplates(books))
	return books, catSeed, pool
}

func uniformRings(seed int64, clients int, pool []string) [][]request {
	rings := make([][]request, clients)
	for c := range rings {
		rings[c] = clientRequests(seed, c, pool)
	}
	return rings
}

// inProcess wires a bench to an in-process stack built by newStack. hot is
// the texts set-up translates once; oracle checks the stack's answer to q
// against the sequential oracle and returns the oracle's answer count.
func inProcess(b *bench, hot []string, newStack func(serve.SourceExecutor) *stack,
	oracle func(st *stack, q *qtree.Node) (int, error), newTarget func(st *stack, last []atomic.Uintptr) target) *bench {
	var st *stack
	b.build = func(exec serve.SourceExecutor) (time.Duration, error) {
		st = nil
		start := time.Now()
		next := newStack(exec)
		if err := warmTranslate(next.srv, hot); err != nil {
			return 0, err
		}
		d := time.Since(start)
		st = next
		return d, nil
	}
	b.check = func() ([]int, error) {
		want := make([]int, len(b.pool))
		for i := range want {
			want[i] = -1
		}
		for _, id := range requested(b.rings) {
			q, err := qparse.Parse(b.pool[id])
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", b.pool[id], err)
			}
			if want[id], err = oracle(st, q); err != nil {
				return nil, fmt.Errorf("query %q: %w", b.pool[id], err)
			}
		}
		return want, nil
	}
	var tgt target
	b.target = func() target {
		if tgt == nil {
			tgt = newTarget(st, make([]atomic.Uintptr, len(b.pool)))
		}
		return tgt
	}
	b.meter = func() meter { return selfMeter{} }
	b.counters = func() (counters, error) { return countersOf(st.srv.Stats()), nil }
	b.heapLive = func() (uint64, error) {
		with := liveHeap()
		st, tgt = nil, nil
		return with - min(with, liveHeap()), nil
	}
	b.drop = func() { st, tgt = nil, nil }
	return b
}

// requested lists the distinct queries the rings send, in ascending order.
func requested(rings [][]request) []int32 {
	seen := make(map[int32]bool)
	var ids []int32
	for _, ring := range rings {
		for _, r := range ring {
			if !seen[r.id] {
				seen[r.id] = true
				ids = append(ids, r.id)
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func prepareBooks(seed int64, clients int) *bench {
	books, _, pool := catalog(seed)
	b := &bench{pool: pool, rings: uniformRings(seed, clients, pool)}
	oracle := func(st *stack, q *qtree.Node) (int, error) {
		want, err := unionOracle(st.med.Indexes, st.data, q)
		if err != nil {
			return 0, err
		}
		got, err := st.srv.Query(context.Background(), q)
		if err != nil {
			return 0, err
		}
		if render(got) != render(want) {
			return 0, fmt.Errorf("Server.Query answers differ from mediator.ExecuteUnion")
		}
		return want.Len(), nil
	}
	return inProcess(b, pool, func(exec serve.SourceExecutor) *stack { return buildBooks(books, exec) }, oracle,
		func(st *stack, last []atomic.Uintptr) target { return &queryTarget{srv: st.srv, last: last} })
}

// unionOracle answers q with a fresh bookstore mediator's sequential
// ExecuteUnion.
func unionOracle(ix map[string]engine.IndexSet, data map[string]*engine.Relation, q *qtree.Node) (*engine.Relation, error) {
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	med.Indexes = ix
	rel, _, err := med.ExecuteUnion(q, data)
	return rel, err
}

func prepareLibrary(seed int64, clients int) *bench {
	people, papers := genLibrary(rand.New(rand.NewSource(subSeed(seed, seedLibrary))), libraryPeople, libraryPapers)
	pool := drawPool(rand.New(rand.NewSource(subSeed(seed, seedQueries))), libraryTemplates(people, papers))
	b := &bench{pool: pool, rings: uniformRings(seed, clients, pool)}
	oracle := func(st *stack, q *qtree.Node) (int, error) {
		want, _, err := libraryMediator().ExecuteJoin(q, st.data)
		if err != nil {
			return 0, err
		}
		got, err := st.srv.QueryJoin(context.Background(), q)
		if err != nil {
			return 0, err
		}
		if render(got) != render(want) {
			return 0, fmt.Errorf("Server.QueryJoin answers differ from mediator.ExecuteJoin")
		}
		return want.Len(), nil
	}
	return inProcess(b, pool, func(exec serve.SourceExecutor) *stack { return buildLibrary(people, papers, exec) }, oracle,
		func(st *stack, last []atomic.Uintptr) target {
			return &queryTarget{srv: st.srv, join: true, last: last}
		})
}

// prepareZipf generates translate-zipf's pool, hot set and rings. Its
// oracle check goes through the server, so it replaces set-up's cache
// state with the checked queries'; the warm-up phase that follows brings
// the caches back to the stream's steady state.
func prepareZipf(seed int64, clients int) *bench {
	trees := bySizeQuantile(zipfTrees(rand.New(rand.NewSource(subSeed(seed, seedZipfPool))), workload.New(zipfConfig), zipfPool))
	pool := make([]string, len(trees))
	for i, t := range trees {
		pool[i] = t.String()
	}
	rings := make([][]request, clients)
	for c := range rings {
		rings[c] = zipfRequests(seed, c, trees, ringSize)
	}
	b := &bench{pool: pool, rings: rings}
	fresh := zipfMediator()
	oracle := func(st *stack, q *qtree.Node) (int, error) {
		want, err := fresh.Translate(q)
		if err != nil {
			return 0, err
		}
		got, err := st.srv.Translate(context.Background(), q)
		if err != nil {
			return 0, err
		}
		if translationIdentity(got) != translationIdentity(want) {
			return 0, fmt.Errorf("Server.Translate differs from mediator.Translate")
		}
		return translationSize(want), nil
	}
	return inProcess(b, pool[:zipfHot], func(serve.SourceExecutor) *stack { return buildZipf() }, oracle,
		func(st *stack, last []atomic.Uintptr) target { return &translateTarget{srv: st.srv, last: last} })
}

// prepareHTTP generates the union stack's inputs for a mediatord subprocess,
// which gets only -books and -seed and generates the same catalog.
func prepareHTTP(seed int64, clients int, bin string) *bench {
	books, catSeed, pool := catalog(seed)
	b := &bench{pool: pool, rings: uniformRings(seed, clients, pool)}
	var d *daemon
	var tgt *httpTarget
	b.drop = func() {
		if tgt != nil {
			tgt.client.CloseIdleConnections()
		}
		if d != nil {
			d.stop()
		}
		d, tgt = nil, nil
	}
	b.build = func(serve.SourceExecutor) (time.Duration, error) {
		b.drop()
		next, took, err := startDaemon(bin, catalogBooks, catSeed)
		if err != nil {
			return 0, err
		}
		d = next
		return took, nil
	}
	b.target = func() target {
		if tgt == nil {
			tgt = newHTTPTarget(d, pool, clients)
		}
		return tgt
	}
	b.check = func() ([]int, error) {
		// The oracle runs in this process over the same generated catalog.
		rel := sources.BookRelation("catalog", books)
		ix := map[string]engine.IndexSet{"amazon": engine.BuildIndexes(rel, "publisher", "isbn", "subject")}
		data := map[string]*engine.Relation{"amazon": rel, "clbooks": rel}
		want := make([]int, len(pool))
		t := b.target().(*httpTarget)
		for _, id := range requested(b.rings) {
			q, err := qparse.Parse(pool[id])
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", pool[id], err)
			}
			orc, err := unionOracle(ix, data, q)
			if err != nil {
				return nil, fmt.Errorf("query %q: %w", pool[id], err)
			}
			got, err := t.fetchQuery(int(id))
			if err != nil {
				return nil, fmt.Errorf("query %q: %w", pool[id], err)
			}
			if exp := projected(orc); got.AnswerCount != orc.Len() || !reflect.DeepEqual(got.Answers, exp) {
				return nil, fmt.Errorf("query %q: mediatord's answers differ from mediator.ExecuteUnion's", pool[id])
			}
			want[id] = orc.Len()
		}
		return want, nil
	}
	b.meter = func() meter { return daemonMeter{d} }
	b.counters = func() (counters, error) {
		resp, err := d.ctl.Get(d.base + "/stats")
		if err != nil {
			return counters{}, err
		}
		defer resp.Body.Close()
		var st serve.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return counters{}, fmt.Errorf("decoding /stats: %w", err)
		}
		return countersOf(st), nil
	}
	b.heapLive = func() (uint64, error) {
		ms, err := d.memStats()
		if err != nil {
			return 0, err
		}
		return strconv.ParseUint(ms["HeapAlloc"], 10, 64)
	}
	return b
}

// projected renders answers the way mediatord's /query encodes them: the
// four attributes it reports, as strings.
func projected(r *engine.Relation) []map[string]string {
	var out []map[string]string
	for _, t := range r.Tuples {
		row := make(map[string]string)
		for _, a := range []string{"ti", "author", "publisher", "id-no"} {
			if v, ok := t[a]; ok {
				row[a] = v.String()
			}
		}
		out = append(out, row)
	}
	return out
}
