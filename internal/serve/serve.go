// Package serve wraps the mediation pipeline behind a production-shaped
// serving layer, turning the single-threaded mediator of Section 2 into a
// concurrent service:
//
//   - a canonical translation cache: translations are pure functions of
//     (canonical query, source specs), so queries that are equivalent under
//     ∧/∨ commutativity, associativity, and idempotence share one bounded-LRU
//     entry keyed by qtree's canonical form, and concurrent identical misses
//     are collapsed singleflight-style into one computation;
//   - concurrent per-source fan-out: the per-source select+filter phases of
//     union- and join-style integration run in parallel goroutines under a
//     bounded worker pool (admission control via semaphore) with an optional
//     per-source timeout, and results are merged in deterministic source
//     order so answers are identical to the sequential Execute* paths;
//   - a stats layer: lock-free counters (requests, cache hits/misses/
//     evictions, singleflight suppressions, timeouts, per-source latency
//     histograms) backed by an obs.Registry, exposed both as a Stats
//     snapshot and in the Prometheus text format via Server.Metrics().
package serve

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/resilience"
)

// DefaultCacheSize is the translation-cache capacity used when Config (or
// NewCachingTranslator) leaves it unset.
const DefaultCacheSize = 1024

// CachingTranslator memoizes mediator translations keyed by the canonical
// form of the query (qtree.Node.CanonicalKey): permuted-but-equivalent
// queries compute once and then hit. Misses for the same key are collapsed
// singleflight-style, so a stampede of N concurrent identical queries runs
// one translation. It is safe for concurrent use.
//
// Cached *mediator.Translation values are shared between callers and must
// be treated as immutable.
type CachingTranslator struct {
	translate func(*qtree.Node) (*mediator.Translation, error)
	cache     *lruCache
	flight    flightGroup

	hits, misses, shared obs.Counter
}

// NewCachingTranslator wraps med.Translate in a canonical LRU cache holding
// up to capacity translations (DefaultCacheSize if capacity <= 0).
func NewCachingTranslator(med *mediator.Mediator, capacity int) *CachingTranslator {
	return newCachingTranslator(med.Translate, capacity, false, 0)
}

// newCachingTranslator builds the cache over fn, with TinyLFU admission
// through a sketch hashed by seed when admission is on.
func newCachingTranslator(fn func(*qtree.Node) (*mediator.Translation, error), capacity int, admission bool, seed uint64) *CachingTranslator {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	var admit *resilience.Sketch
	if admission {
		admit = resilience.NewSketch(capacity, seed)
	}
	return &CachingTranslator{translate: fn, cache: newLRU(capacity, admit)}
}

// Translate returns the translation of q, computing it at most once per
// canonical equivalence class while the entry stays resident. Errors are
// not cached.
func (ct *CachingTranslator) Translate(q *qtree.Node) (*mediator.Translation, error) {
	key := q.CanonicalKey()
	if tr, ok := ct.cache.Get(key); ok {
		ct.hits.Inc()
		return tr, nil
	}
	tr, err, shared := ct.flight.Do(key, func() (*mediator.Translation, error) {
		tr, err := ct.translate(q)
		if err != nil {
			return nil, err
		}
		ct.cache.Add(key, tr)
		return tr, nil
	})
	if shared {
		ct.shared.Inc()
	} else {
		ct.misses.Inc()
	}
	return tr, err
}

// Hits returns the number of lookups served from the resident cache.
func (ct *CachingTranslator) Hits() uint64 { return ct.hits.Value() }

// Misses returns the number of translations actually computed.
func (ct *CachingTranslator) Misses() uint64 { return ct.misses.Value() }

// Shared returns the number of duplicate concurrent misses collapsed onto
// another caller's in-flight computation.
func (ct *CachingTranslator) Shared() uint64 { return ct.shared.Value() }

// Len returns the number of resident cache entries.
func (ct *CachingTranslator) Len() int { return ct.cache.Len() }

// Evictions returns the number of entries evicted for capacity.
func (ct *CachingTranslator) Evictions() uint64 { return ct.cache.Evictions() }

// AdmissionRejected returns the number of inserts the TinyLFU admission
// policy refused (always 0 without admission).
func (ct *CachingTranslator) AdmissionRejected() uint64 { return ct.cache.Rejected() }

// SourceExecutor runs one source's native selection phase: evaluate the
// translated query q over the source's relation rel with the source's
// evaluator ev, using ix (may be nil) to accelerate equality probes and acc
// (may be nil) for full cost-based access-path selection. Custom executors
// wrap DefaultExecutor to add fault injection, tracing, or remote
// transports; they must honor ctx, whose deadline carries the server's
// per-source timeout.
type SourceExecutor func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error)

// DefaultExecutor is the in-memory selection phase: a cost-based
// access-path select when the source has an Access, an indexed select when
// it has equality indexes, a scan otherwise.
func DefaultExecutor(ctx context.Context, _ string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
	if acc != nil {
		return rel.SelectAccess(ctx, q, ev, acc)
	}
	if ix != nil {
		return rel.SelectIndexed(q, ev, ix)
	}
	return rel.Select(q, ev)
}

// Server serves mediated queries concurrently: cached translation, parallel
// per-source execution under admission control, deterministic merging, and
// atomic stats. It is safe for concurrent use; the mediator, its sources,
// and the data relations must not be mutated while the server is live (the
// union merge's rank table and the column snapshots that selection runs on
// are built from the relations once).
type Server struct {
	med     *mediator.Mediator
	data    map[string]*engine.Relation
	tr      *CachingTranslator
	mc      *core.MatchCache
	sem     chan struct{}
	workers int
	timeout time.Duration
	exec    SourceExecutor

	// ranks orders the universe tuples for the union merge; unionRanks
	// builds it on the first union query that has answers.
	ranksOnce sync.Once
	ranks     *engine.Ranks
	// native is set when the server selects on column snapshots: no
	// Config.Executor and no Config.Index. snaps then holds a snapshot of
	// each universe relation, which fanOut builds on the first query.
	native   bool
	snapOnce sync.Once
	snaps    map[*engine.Relation]*engine.Snapshot

	// access holds a cost-based access path over each distinct universe
	// relation when Config.Index is on; nil map when indexing is off.
	access map[*engine.Relation]*engine.Access

	reg      *obs.Registry
	requests *obs.Counter
	inFlight *obs.Gauge
	timeouts *obs.Counter
	errors   *obs.Counter
	sources  map[string]*sourceCounters

	// Resilience layer (nil/zero when ResilienceConfig is all-off).
	resCfg        ResilienceConfig
	retrier       *resilience.Retrier
	res           map[string]*sourceResilience
	hedgeLaunched *obs.Counter
	hedgeWon      *obs.Counter
	retriesCtr    *obs.Counter
}

// New returns a server over med and the per-source data relations. data
// maps source name → that source's universe relation, as in the mediator's
// Execute* methods.
//
// Unless disabled (MatchCacheSize < 0), New installs a shared cross-request
// matchings cache on the mediator (med.MatchCache) so distinct requests
// reuse SCM matching work; a cache the mediator already carries is kept.
func New(med *mediator.Mediator, data map[string]*engine.Relation, cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
	}
	exec := cfg.Executor
	if exec == nil {
		exec = DefaultExecutor
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	mc := cfg.Cache.MatchCache
	if mc == nil && cfg.Cache.MatchCacheSize >= 0 {
		mc = core.NewMatchCacheAdmission(cfg.Cache.MatchCacheSize, cfg.Cache.Admission)
	}
	if med.MatchCache != nil {
		mc = med.MatchCache
	} else if mc != nil {
		med.MatchCache = mc
	}
	if cfg.ChainDebug {
		med.ChainDebug = true
	}
	s := &Server{
		med:     med,
		data:    data,
		tr:      newCachingTranslator(med.Translate, cfg.Cache.Size, cfg.Cache.Admission, rand.Uint64()),
		mc:      mc,
		sem:     make(chan struct{}, workers),
		workers: workers,
		timeout: cfg.SourceTimeout,
		exec:    exec,
		native:  cfg.Executor == nil && !cfg.Index,
		reg:     reg,
		sources: make(map[string]*sourceCounters, len(med.Sources)),
		resCfg:  cfg.Resilience,
	}
	s.initResilience(cfg.Resilience)
	if cfg.Index {
		s.access = make(map[*engine.Relation]*engine.Access, len(data))
		for _, rel := range data {
			if _, done := s.access[rel]; !done {
				s.access[rel] = engine.BuildAccess(rel)
			}
		}
	}
	s.requests = reg.Counter("qmap_serve_requests_total",
		"Translate and Query/QueryJoin calls.")
	s.errors = reg.Counter("qmap_serve_errors_total",
		"Requests that returned an error.")
	s.timeouts = reg.Counter("qmap_serve_timeouts_total",
		"Per-source executions cut off by a deadline.")
	s.inFlight = reg.Gauge("qmap_serve_in_flight",
		"Query/QueryJoin calls currently executing.")
	reg.RegisterCounter("qmap_cache_hits_total",
		"Translations served from the resident cache.", &s.tr.hits)
	reg.RegisterCounter("qmap_cache_misses_total",
		"Translations actually computed.", &s.tr.misses)
	reg.RegisterCounter("qmap_cache_shared_total",
		"Duplicate concurrent misses collapsed singleflight-style.", &s.tr.shared)
	reg.GaugeFunc("qmap_cache_entries",
		"Resident translation-cache entries.",
		func() float64 { return float64(s.tr.Len()) })
	reg.CounterFunc("qmap_cache_evictions_total",
		"Translation-cache entries evicted for capacity.",
		func() float64 { return float64(s.tr.Evictions()) })
	if mc != nil {
		reg.CounterFunc("qmap_matchcache_hits_total",
			"Matching lookups served from the shared cross-request cache.",
			func() float64 { return float64(mc.Stats().Hits) })
		reg.CounterFunc("qmap_matchcache_misses_total",
			"Matching lookups that derived fresh matchings (incl. traced bypasses).",
			func() float64 { return float64(mc.Stats().Misses) })
		reg.CounterFunc("qmap_matchcache_evictions_total",
			"Shared matchings-cache entries evicted for capacity.",
			func() float64 { return float64(mc.Stats().Evictions) })
		reg.GaugeFunc("qmap_matchcache_entries",
			"Resident shared matchings-cache entries.",
			func() float64 { return float64(mc.Len()) })
	}
	if cfg.Index {
		reg.CounterFunc("qmap_index_probes_total",
			"Index probes executed by the access-path planner (one per planned disjunct).",
			func() float64 { return float64(s.accessStats().Probes) })
		reg.CounterFunc("qmap_index_fallbacks_total",
			"Selections answered by a full scan because no sound probe existed.",
			func() float64 { return float64(s.accessStats().Fallbacks) })
		reg.CounterFunc("qmap_index_scanned_tuples_total",
			"Tuples evaluated by selections: probe candidates when indexed, whole universes on fallback.",
			func() float64 { return float64(s.accessStats().Scanned) })
	}
	s.hedgeLaunched = reg.Counter("qmap_hedge_launched_total",
		"Hedged source attempts launched after the latency-quantile delay.")
	s.hedgeWon = reg.Counter("qmap_hedge_won_total",
		"Hedged attempts whose result was the one returned.")
	s.retriesCtr = reg.Counter("qmap_retry_total",
		"Source execution retries after typed transient faults.")
	reg.CounterFunc("qmap_breaker_trips_total",
		"Circuit-breaker transitions to the open state across all sources.",
		func() float64 { return float64(s.breakerTrips()) })
	reg.CounterFunc("qmap_admission_rejected_total",
		"Cache inserts rejected by the TinyLFU admission policy (translation and matchings caches).",
		func() float64 { return float64(s.admissionRejected()) })
	for _, src := range med.Sources {
		s.sources[src.Name] = &sourceCounters{
			timeouts: reg.Counter("qmap_source_timeouts_total",
				"Source executions abandoned to a deadline.", "source", src.Name),
			lat: reg.Histogram("qmap_source_latency_seconds",
				"Completed source select+filter latency in seconds.",
				LatencyBounds(), "source", src.Name),
		}
		name := src.Name
		reg.GaugeFunc("qmap_breaker_state",
			"Circuit-breaker state per source: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(s.breakerState(name)) },
			"source", name)
	}
	return s
}

// accessStats sums the cumulative access-path counters across the universe
// relations. Zero when indexing is off.
func (s *Server) accessStats() engine.AccessStats {
	var out engine.AccessStats
	for _, acc := range s.access {
		st := acc.Stats()
		out.Probes += st.Probes
		out.Fallbacks += st.Fallbacks
		out.Scanned += st.Scanned
	}
	return out
}

// Translator returns the server's translation cache.
func (s *Server) Translator() *CachingTranslator { return s.tr }

// MatchCache returns the shared cross-request matchings cache the server
// installed on its mediator, or nil when disabled.
func (s *Server) MatchCache() *core.MatchCache { return s.mc }

// Metrics returns the registry backing the server's counters, for mounting
// a /metrics endpoint (obs.Registry.WritePrometheus) or registering further
// collectors alongside the server's.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Translate returns the (cached) translation of q.
func (s *Server) Translate(ctx context.Context, q *qtree.Node) (*mediator.Translation, error) {
	s.requests.Inc()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := s.tr.Translate(q)
	if err != nil {
		s.errors.Inc()
	}
	return tr, err
}

// BatchResult is one query's outcome from Server.TranslateBatch,
// index-aligned with the input slice.
type BatchResult struct {
	Translation *mediator.Translation
	Err         error
}

// TranslateBatch translates qs[i] for every i, returning results
// index-aligned with qs. Lookups go through the same canonical translation
// cache and shared matchings cache as Translate; distinct misses run
// concurrently under the server's worker bound, so a batch of cold queries
// amortizes spec compilation and matching work across one call. A canceled
// ctx fails the not-yet-started remainder with ctx.Err().
func (s *Server) TranslateBatch(ctx context.Context, qs []*qtree.Node) []BatchResult {
	s.requests.Add(uint64(len(qs)))
	out := make([]BatchResult, len(qs))
	workers := s.workers
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			if err := ctx.Err(); err != nil {
				out[i] = BatchResult{Err: err}
				s.errors.Inc()
				continue
			}
			tr, err := s.tr.Translate(q)
			out[i] = BatchResult{Translation: tr, Err: err}
			if err != nil {
				s.errors.Inc()
			}
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				tr, err := s.tr.Translate(qs[i])
				out[i] = BatchResult{Translation: tr, Err: err}
				if err != nil {
					s.errors.Inc()
				}
			}
		}()
	}
feed:
	for i := range qs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Translation == nil && out[i].Err == nil {
				out[i] = BatchResult{Err: err}
				s.errors.Inc()
			}
		}
	}
	return out
}

// Query answers q in union-style integration, producing the same relation
// as mediator.ExecuteUnion: each source's translated query selects its
// native relation and each branch is post-filtered with the branch residue.
// Translation comes from the cache; the per-source phases run in parallel
// under the worker pool; branches are merged (deduplicated) in
// deterministic source order and sorted.
func (s *Server) Query(ctx context.Context, q *qtree.Node) (*engine.Relation, error) {
	s.requests.Inc()
	s.inFlight.Inc()
	defer s.inFlight.Dec()

	tr, err := s.tr.Translate(q)
	if err != nil {
		s.errors.Inc()
		return nil, err
	}
	rels, events, err := s.fanOut(ctx, tr, true)
	if err != nil {
		s.errors.Inc()
		return nil, err
	}
	out := s.mergeUnion(rels)
	s.accessSpan(ctx, tr)
	s.resilienceSpan(ctx, tr, events)
	return out, nil
}

// mergeUnion merges the branch relations as mediator.ExecuteUnion does:
// tuples deduplicated by rendering, the first occurrence in source order
// kept, ordered by rendering. Branch tuples drawn from the universes are
// compared by their rank instead of rendered; a tuple outside them, which
// only an executor that builds its own tuples returns, sends the request to
// the rendering merge.
func (s *Server) mergeUnion(rels []*engine.Relation) *engine.Relation {
	n := 0
	for _, rel := range rels {
		n += rel.Len()
	}
	if n == 0 {
		return engine.NewRelation("result")
	}
	ranks := s.unionRanks()
	// A branch tuple's key is its rank above its position in source
	// order, so sorting the keys sorts stably by rank.
	all := make([]engine.Tuple, 0, n)
	keys := make([]uint64, 0, n)
	for _, rel := range rels {
		for _, t := range rel.Tuples {
			r, ok := ranks.Rank(t)
			if !ok {
				return renderMerge(rels)
			}
			keys = append(keys, uint64(r)<<32|uint64(len(all)))
			all = append(all, t)
		}
	}
	slices.Sort(keys)
	distinct := 0
	for _, k := range keys {
		if distinct == 0 || k>>32 != keys[distinct-1]>>32 {
			keys[distinct] = k
			distinct++
		}
	}
	out := &engine.Relation{Name: "result", Tuples: make([]engine.Tuple, distinct)}
	for i, k := range keys[:distinct] {
		out.Tuples[i] = all[uint32(k)]
	}
	return out
}

// unionRanks returns the rank table over the server's universe relations,
// building it on first use.
func (s *Server) unionRanks() *engine.Ranks {
	s.ranksOnce.Do(func() {
		rels := make([]*engine.Relation, 0, len(s.data))
		for _, rel := range s.data {
			rels = append(rels, rel)
		}
		s.ranks = engine.BuildRanks(rels...)
	})
	return s.ranks
}

// renderMerge is mergeUnion by rendering every branch tuple.
func renderMerge(rels []*engine.Relation) *engine.Relation {
	out := engine.NewRelation("result")
	var keys []string
	seen := make(map[string]bool)
	for _, rel := range rels {
		for _, t := range rel.Tuples {
			key := t.String()
			if !seen[key] {
				seen[key] = true
				out.Tuples = append(out.Tuples, t)
				keys = append(keys, key)
			}
		}
	}
	sortTuplesByKey(out.Tuples, keys)
	return out
}

// QueryJoin answers q in join-style integration (Eq. 2), producing the same
// relation as mediator.ExecuteJoin: the parallel per-source selections are
// joined in source order under the mediator's glue constraint, and the
// global filter F removes the false positives. engine.Join evaluates the
// glue and F on candidate pairs and merges only the answers instead of
// materializing the cross product.
func (s *Server) QueryJoin(ctx context.Context, q *qtree.Node) (*engine.Relation, error) {
	s.requests.Inc()
	s.inFlight.Inc()
	defer s.inFlight.Dec()

	tr, err := s.tr.Translate(q)
	if err != nil {
		s.errors.Inc()
		return nil, err
	}
	rels, events, err := s.fanOut(ctx, tr, false)
	if err != nil {
		s.errors.Inc()
		return nil, err
	}
	out, err := engine.Join(rels, s.med.Glue, tr.Filter, s.med.Eval)
	if err != nil {
		s.errors.Inc()
		return nil, err
	}
	out.Name = "result"
	sortRelation(out)
	s.accessSpan(ctx, tr)
	s.resilienceSpan(ctx, tr, events)
	return out, nil
}

// accessSpan records the planner's chosen access path per source when the
// request context carries a tracer and indexing is on. The path description
// rides in the span name (deterministic for a fixed query and universe);
// counters carry whether the plan probed and how many candidate tuples the
// probes admit. Called after the merge, on the single request goroutine.
func (s *Server) accessSpan(ctx context.Context, tr *mediator.Translation) {
	if s.access == nil {
		return
	}
	t := obs.TracerFrom(ctx)
	if t == nil {
		return
	}
	for i := range tr.Sources {
		st := &tr.Sources[i]
		acc := s.access[s.data[st.Source.Name]]
		if acc == nil {
			continue
		}
		plan := acc.PlanQuery(st.Query, st.Source.Eval)
		sp := t.Start(obs.KindAccess, st.Source.Name+" "+plan.Describe())
		probed := int64(0)
		if plan.Probed() {
			probed = 1
		}
		sp.Set("probed", probed)
		t.End()
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:       s.requests.Value(),
		InFlight:       s.inFlight.Value(),
		CacheHits:      s.tr.Hits(),
		CacheMisses:    s.tr.Misses(),
		CacheShared:    s.tr.Shared(),
		CacheEntries:   s.tr.Len(),
		CacheEvictions: s.tr.Evictions(),
		Timeouts:       s.timeouts.Value(),
		Errors:         s.errors.Value(),

		BreakerTrips:      s.breakerTrips(),
		HedgesLaunched:    s.hedgeLaunched.Value(),
		HedgesWon:         s.hedgeWon.Value(),
		Retries:           s.retriesCtr.Value(),
		AdmissionRejected: s.admissionRejected(),
	}
	if s.access != nil {
		as := s.accessStats()
		st.IndexProbes = as.Probes
		st.IndexFallbacks = as.Fallbacks
		st.IndexScanned = as.Scanned
	}
	if s.mc != nil {
		mcs := s.mc.Stats()
		st.MatchCacheHits = mcs.Hits
		st.MatchCacheMisses = mcs.Misses
		st.MatchCacheEvictions = mcs.Evictions
		st.MatchCacheEntries = mcs.Entries
	}
	st.Sources = make(map[string]SourceStats, len(s.sources))
	st.LatencyLabels = LatencyBucketLabels()
	for name, sc := range s.sources {
		st.Sources[name] = SourceStats{
			Executions:     sc.lat.Count(),
			Timeouts:       sc.timeouts.Value(),
			LatencyBuckets: sc.latencyBuckets(),
			BreakerState:   resilience.BreakerState(s.breakerState(name)).String(),
		}
	}
	return st
}

// fanOut executes every source's phase concurrently and returns the
// per-source relations in tr.Sources order, plus each source's resilience
// events for the post-merge spans. branchFilter selects the union-style
// post-filtering (true) or the bare selection of join-style integration
// (false).
func (s *Server) fanOut(ctx context.Context, tr *mediator.Translation, branchFilter bool) ([]*engine.Relation, []sourceEvents, error) {
	if s.native {
		// Built here, on the request goroutine, so that no source's
		// deadline or worker slot pays for it.
		s.snapOnce.Do(s.buildSnapshots)
	}
	rels := make([]*engine.Relation, len(tr.Sources))
	errs := make([]error, len(tr.Sources))
	events := make([]sourceEvents, len(tr.Sources))
	var wg sync.WaitGroup
	for i := range tr.Sources {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rels[i], errs[i] = s.runSource(ctx, tr, &tr.Sources[i], branchFilter, &events[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, events, err
		}
	}
	return rels, events, nil
}

// evalSource is the sequential per-source phase, mirroring the loop bodies
// of mediator.ExecuteUnion / ExecuteJoin.
func (s *Server) evalSource(ctx context.Context, tr *mediator.Translation, st *mediator.SourceTranslation, branchFilter bool) (*engine.Relation, error) {
	rel, ok := s.data[st.Source.Name]
	if !ok {
		return nil, fmt.Errorf("serve: no data for source %s", st.Source.Name)
	}
	ix := s.med.Indexes[st.Source.Name]
	if s.native {
		if out, ok, err := s.selectRows(rel, tr, st, ix, branchFilter); ok {
			return out, err
		}
	}
	native, err := s.exec(ctx, st.Source.Name, rel, st.Query, st.Source.Eval, ix, s.access[rel])
	if err != nil || !branchFilter {
		return native, err
	}
	return native.Select(tr.BranchFilter(st), s.med.Eval)
}

// buildSnapshots builds a column snapshot of each distinct universe
// relation.
func (s *Server) buildSnapshots() {
	s.snaps = make(map[*engine.Relation]*engine.Snapshot, len(s.data))
	for _, rel := range s.data {
		if _, done := s.snaps[rel]; !done {
			s.snaps[rel] = engine.NewSnapshot(rel)
		}
	}
}

// selectRows is evalSource's phase on rel's column snapshot: DefaultExecutor's
// selection and the branch filter on row IDs, then the selected rows'
// tuple maps. ok is false when the snapshot cannot stand in for the tuple
// path: the probed bucket holds a tuple map that rel does not.
func (s *Server) selectRows(rel *engine.Relation, tr *mediator.Translation, st *mediator.SourceTranslation, ix engine.IndexSet, branchFilter bool) (out *engine.Relation, ok bool, err error) {
	snap := s.snaps[rel]
	buf := rowBufs.Get().(*[]int32)
	defer rowBufs.Put(buf)
	rows, ok, err := snap.Select((*buf)[:0], st.Query, st.Source.Eval, ix)
	*buf = rows
	if !ok || err != nil {
		return nil, ok, err
	}
	if branchFilter {
		if rows, err = snap.Filter(rows, tr.BranchFilter(st), s.med.Eval); err != nil {
			return nil, true, err
		}
	}
	return snap.Relation(rows), true, nil
}

// rowBufs holds selectRows' row buffers between requests.
var rowBufs = sync.Pool{New: func() any { return new([]int32) }}

func sortRelation(r *engine.Relation) {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.String()
	}
	sortTuplesByKey(r.Tuples, keys)
}

// sortTuplesByKey orders tuples by precomputed render keys — the same order
// as the mediator's sort-by-String, without re-rendering every tuple
// O(n log n) times in the comparator.
func sortTuplesByKey(tuples []engine.Tuple, keys []string) {
	sort.Sort(&tuplesByKey{tuples: tuples, keys: keys})
}

type tuplesByKey struct {
	tuples []engine.Tuple
	keys   []string
}

func (s *tuplesByKey) Len() int           { return len(s.tuples) }
func (s *tuplesByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *tuplesByKey) Swap(i, j int) {
	s.tuples[i], s.tuples[j] = s.tuples[j], s.tuples[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
