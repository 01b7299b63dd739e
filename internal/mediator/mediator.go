// Package mediator implements the mediation pipeline of Section 2: it holds
// the integrated views, translates a constraint query for every underlying
// source (Eq. 1 → Eq. 2), derives the filter query F of Eq. 3, executes the
// translated queries on the sources' data through each source's native
// evaluator, combines the results, and post-filters the false positives.
//
// Data model. Each source's relation holds "universe" tuples that carry the
// source's native attributes alongside the mediator-view attributes they
// derive from — the materialization of the conceptual conversion relations X
// of Section 2. This lets original and translated queries be evaluated on
// the same tuples, which is how the test suite verifies the subsumption
// guarantee of Definition 1 and the correctness property of Eq. 3.
package mediator

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/sources"
)

// View documents one integrated mediator view: its attributes and the
// source relations it expands to (Example 3's fac and pub).
type View struct {
	Name  string
	Attrs []string
	// Expansions maps source name → the source relations contributing to
	// this view (e.g. fac → {t1: [aubib], t2: [prof]}).
	Expansions map[string][]string
}

// Mediator binds the integrated views and the underlying sources.
type Mediator struct {
	Views   []View
	Sources []*sources.Source
	// Algorithm selects the translation algorithm (core.AlgTDQM default).
	Algorithm string
	// Eval evaluates mediator-vocabulary queries (the filter F) over
	// universe tuples. Defaults to the standard evaluator.
	Eval *engine.Evaluator
	// Glue holds the view-definition constraints of Eq. 1 that relate the
	// sources' contributions (e.g. Example 3's join of aubib and prof on
	// person identity). ExecuteJoin applies it after the cross product,
	// before the filter. Nil means no glue.
	Glue *qtree.Node
	// Indexes optionally holds per-source equality indexes (by source
	// name); the executors then answer indexable translated queries with
	// probes instead of scans. Overridden operators always fall back.
	Indexes map[string]engine.IndexSet
	// Metrics, when non-nil, receives cumulative rule-level translation
	// counters (rule fires, suppressions, SCM/PSafe calls) for every
	// translation this mediator performs. Nil disables the accounting.
	Metrics *obs.TranslationMetrics
	// Parallelism bounds the worker pool each translator may use for
	// per-branch mapping (core.WithParallelism), and the fan-out width of
	// TranslateBatch. Zero or one keeps translation sequential; traced
	// translations are always sequential.
	Parallelism int
	// MatchCache, when non-nil, is the shared cross-request matchings cache
	// every translator this mediator creates consults (core.MatchCache).
	// Translations are identical with or without it; internal/serve wires
	// one in by default.
	MatchCache *core.MatchCache
	// Chains maps source name → the offline-composed mapping chain behind
	// that source (see AddChainSource). Translation normally goes through
	// the single composed spec; ChainDebug replays the original hops.
	Chains map[string]*ChainSpec
	// ChainDebug switches chain-backed sources to sequential hop-by-hop
	// translation through the original specs. Filtered answers are identical
	// to the composed path's; the branch residue is conservatively Q and
	// translation does multi-hop work — a differential-checking mode, not a
	// serving mode.
	ChainDebug bool
}

// selectFrom runs a translated query against a source relation, using the
// source's indexes when available.
func (m *Mediator) selectFrom(sourceName string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator) (*engine.Relation, error) {
	if ix, ok := m.Indexes[sourceName]; ok {
		return rel.SelectIndexed(q, ev, ix)
	}
	return rel.Select(q, ev)
}

// New returns a mediator over the given sources using Algorithm TDQM.
func New(srcs ...*sources.Source) *Mediator {
	return &Mediator{Sources: srcs, Algorithm: core.AlgTDQM, Eval: engine.NewEvaluator()}
}

// SourceTranslation is the per-source outcome of translating one query.
type SourceTranslation struct {
	Source *sources.Source
	// Query is S_i(Q), expressed in the source's native vocabulary.
	Query *qtree.Node
	// Residue is the part of Q this source realizes only inexactly
	// (True when the source's translation is exact).
	Residue *qtree.Node
	// Stats records the translation work performed.
	Stats core.Stats
}

// Translation is the full outcome: per-source mappings plus the global
// filter query F of Eq. 3.
type Translation struct {
	Query   *qtree.Node
	Sources []SourceTranslation
	// Filter is F: with join-style integration, Q = F ∧ S_1(Q) ∧ … ∧ S_n(Q).
	Filter *qtree.Node
}

// BranchFilter returns the union-integration post-filter for one branch:
// the branch residue when it is usable as-is (a tight residue from a simple
// conjunction, or an exact branch whose residue is True), otherwise the
// whole query — the safe fallback for complex queries whose residue is only
// sound branch-locally. ExecuteUnion, the serving layer, and the streaming
// pipeline all share this decision so the three paths cannot drift.
func (tr *Translation) BranchFilter(st *SourceTranslation) *qtree.Node {
	filter := st.Residue
	if !tr.Query.IsSimpleConjunction() && !filter.IsTrue() {
		filter = tr.Query
	}
	return filter
}

// Translate maps q for every source and computes the filter query.
//
// For a simple conjunction the filter is tight (Example 3): a constraint
// enters F only if no source realizes it exactly. For complex queries F is
// True when every source translated exactly, otherwise Q itself.
func (m *Mediator) Translate(q *qtree.Node) (*Translation, error) {
	return m.translate(q, nil)
}

// TranslateContext is Translate with observability: if the context carries
// an obs.Tracer (see obs.WithTracer), the translation emits a span tree —
// one "translate" root, one "source" span per source, and beneath each the
// algorithm spans recorded by the core translator. The translated queries
// and stats are identical to Translate's; tracing only observes.
func (m *Mediator) TranslateContext(ctx context.Context, q *qtree.Node) (*Translation, error) {
	return m.translate(q, obs.TracerFrom(ctx))
}

func (m *Mediator) translate(q *qtree.Node, tracer *obs.Tracer) (*Translation, error) {
	q = q.Normalize()
	out := &Translation{Query: q}
	alg := m.Algorithm
	if alg == "" {
		alg = core.AlgTDQM
	}
	if tracer != nil {
		root := tracer.Start(obs.KindTranslate, q.String())
		defer tracer.End()
		root.Set(obs.CtrQuerySize, int64(q.Size()))
	}
	newTranslator := func(src *sources.Source) *core.Translator {
		return core.NewTranslator(src.Spec,
			core.WithTracer(tracer),
			core.WithMetrics(m.Metrics),
			core.WithParallelism(m.Parallelism),
			core.WithMatchCache(m.MatchCache))
	}
	startSource := func(src *sources.Source) {
		if tracer != nil {
			tracer.Start(obs.KindSource, src.Name)
		}
	}
	endSource := func() {
		if tracer != nil {
			tracer.End()
		}
	}

	if q.IsSimpleConjunction() {
		cs := q.SimpleConjuncts()
		exact := qtree.NewConstraintSet()
		for _, src := range m.Sources {
			if st, ok, err := m.chainDebugTranslate(src, q, alg, tracer); err != nil {
				return nil, err
			} else if ok {
				// A chain-debug source contributes nothing to the exact set:
				// per-hop exactness does not decompose per constraint, so its
				// constraints stay in the filter.
				out.Sources = append(out.Sources, st)
				continue
			}
			tr := newTranslator(src)
			startSource(src)
			res, err := tr.SCM(cs)
			endSource()
			if err != nil {
				return nil, fmt.Errorf("mediator: translating for %s: %w", src.Name, err)
			}
			for _, mt := range res.Matchings {
				if mt.Rule.Exact {
					exact.AddAll(mt.Set)
				}
			}
			out.Sources = append(out.Sources, SourceTranslation{
				Source: src, Query: res.Query, Residue: res.Residue, Stats: tr.Stats,
			})
			m.noteComposed(src)
		}
		var residual []*qtree.Node
		for _, c := range cs {
			if !exact.Has(c) {
				residual = append(residual, qtree.Leaf(c))
			}
		}
		out.Filter = qtree.And(residual...).Normalize()
		return out, nil
	}

	allExact := true
	for _, src := range m.Sources {
		if st, ok, err := m.chainDebugTranslate(src, q, alg, tracer); err != nil {
			return nil, err
		} else if ok {
			allExact = false
			out.Sources = append(out.Sources, st)
			continue
		}
		tr := newTranslator(src)
		startSource(src)
		mapped, residue, err := tr.TranslateWithFilter(q, alg)
		endSource()
		if err != nil {
			return nil, fmt.Errorf("mediator: translating for %s: %w", src.Name, err)
		}
		if !residue.IsTrue() {
			allExact = false
		}
		out.Sources = append(out.Sources, SourceTranslation{
			Source: src, Query: mapped, Residue: residue, Stats: tr.Stats,
		})
		m.noteComposed(src)
	}
	if allExact {
		out.Filter = qtree.True()
	} else {
		out.Filter = q.Clone()
	}
	return out, nil
}

// TranslationResult is one query's outcome in a TranslateBatch call. Err
// is set per item: a query that fails to translate does not abort the
// batch.
type TranslationResult struct {
	Translation *Translation
	Err         error
}

// TranslateBatch maps every query in qs in a single call. Each item's
// Translation is identical to a per-query Translate loop — batching only
// amortizes shared work: every translator consults the mediator's shared
// MatchCache, so constraint groups recurring across the batch are derived
// once, and with Parallelism > 1 the queries fan out over that many worker
// goroutines (translators are per-call, the cache and metrics are
// concurrency-safe). A tracer carried by ctx forces the batch sequential,
// as with TranslateContext.
func (m *Mediator) TranslateBatch(ctx context.Context, qs []*qtree.Node) []TranslationResult {
	out := make([]TranslationResult, len(qs))
	tracer := obs.TracerFrom(ctx)
	workers := m.Parallelism
	if tracer != nil {
		workers = 1
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		for i, q := range qs {
			if err := ctx.Err(); err != nil {
				out[i] = TranslationResult{Err: err}
				continue
			}
			tr, err := m.translate(q, tracer)
			out[i] = TranslationResult{Translation: tr, Err: err}
		}
		return out
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					out[i] = TranslationResult{Err: err}
					continue
				}
				tr, err := m.translate(qs[i], nil)
				out[i] = TranslationResult{Translation: tr, Err: err}
			}
		}()
	}
	for i := range qs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// ExecuteUnion runs q in union-style integration: every source materializes
// the same integrated view, each source's translated query selects its
// native relation, each branch is post-filtered with the *branch* residue
// (per Eq. 3 restricted to that source), and the results are unioned.
// data maps source name → that source's universe relation.
func (m *Mediator) ExecuteUnion(q *qtree.Node, data map[string]*engine.Relation) (*engine.Relation, *Translation, error) {
	tr, err := m.Translate(q)
	if err != nil {
		return nil, nil, err
	}
	out := engine.NewRelation("result")
	seen := make(map[string]bool)
	for _, st := range tr.Sources {
		rel, ok := data[st.Source.Name]
		if !ok {
			return nil, nil, fmt.Errorf("mediator: no data for source %s", st.Source.Name)
		}
		native, err := m.selectFrom(st.Source.Name, rel, st.Query, st.Source.Eval)
		if err != nil {
			return nil, nil, err
		}
		// Branch filter: for union integration each branch must satisfy Q
		// in full, so re-check the branch residue (tight) or Q (safe).
		filtered, err := native.Select(tr.BranchFilter(&st), m.Eval)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range filtered.Tuples {
			key := t.String()
			if !seen[key] {
				seen[key] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	sortRelation(out)
	return out, tr, nil
}

// ExecuteJoin runs q in join-style integration (Eq. 2): each source's
// translated query selects its universe relation, the selections are
// cross-multiplied, and the global filter F removes the false positives.
// Universe tuples of different sources are expected to use disjoint
// attribute keys (view/relation-qualified), as in Example 3.
func (m *Mediator) ExecuteJoin(q *qtree.Node, data map[string]*engine.Relation) (*engine.Relation, *Translation, error) {
	tr, err := m.Translate(q)
	if err != nil {
		return nil, nil, err
	}
	var combined *engine.Relation
	for _, st := range tr.Sources {
		rel, ok := data[st.Source.Name]
		if !ok {
			return nil, nil, fmt.Errorf("mediator: no data for source %s", st.Source.Name)
		}
		sel, err := m.selectFrom(st.Source.Name, rel, st.Query, st.Source.Eval)
		if err != nil {
			return nil, nil, err
		}
		if combined == nil {
			combined = sel
		} else {
			combined = engine.Product(combined, sel)
		}
	}
	if combined == nil {
		return engine.NewRelation("result"), tr, nil
	}
	if m.Glue != nil {
		combined, err = combined.Select(m.Glue, m.Eval)
		if err != nil {
			return nil, nil, err
		}
	}
	out, err := combined.Select(tr.Filter, m.Eval)
	if err != nil {
		return nil, nil, err
	}
	out.Name = "result"
	sortRelation(out)
	return out, tr, nil
}

// ExecuteUnionByDisjunct runs q in union-style integration with per-branch
// filtering: the query's top-level disjuncts are translated and filtered
// independently (σ_Q(D) = ∪ σ_Di(D)), so branches that are simple
// conjunctions get the tight residue of Example 3 instead of the whole-query
// fallback filter. The answer set is identical to ExecuteUnion's; the
// filtering work is smaller whenever some branch translates exactly.
func (m *Mediator) ExecuteUnionByDisjunct(q *qtree.Node, data map[string]*engine.Relation) (*engine.Relation, error) {
	q = q.Normalize()
	out := engine.NewRelation("result")
	seen := make(map[string]bool)
	for _, d := range q.Disjuncts() {
		branch, _, err := m.ExecuteUnion(d, data)
		if err != nil {
			return nil, err
		}
		for _, t := range branch.Tuples {
			key := t.String()
			if !seen[key] {
				seen[key] = true
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	sortRelation(out)
	return out, nil
}

func sortRelation(r *engine.Relation) {
	sort.Slice(r.Tuples, func(i, j int) bool {
		return r.Tuples[i].String() < r.Tuples[j].String()
	})
}
