// Package core implements the paper's query-mapping algorithms:
//
//   - Algorithm SCM (Figure 4): minimal subsuming mapping of simple
//     conjunctions via rule matching and submatching suppression.
//   - Algorithm DNF (Figure 6): the baseline for complex queries — global
//     DNF conversion, then SCM per disjunct.
//   - Procedure EDNF (Figure 10): essential-DNF computation for cheap
//     separability (safety) testing.
//   - Algorithm PSafe (Figure 11): safe, minimal partitioning of the
//     conjuncts of an ∧-node by covering cross-matchings.
//   - Algorithm TDQM (Figure 8): top-down query mapping that rewrites query
//     structure locally and only when dependencies require it.
//
// All algorithms take a mapping specification (internal/rules.Spec) that is
// assumed sound and complete (Definitions 3–4); under that assumption the
// outputs are minimal subsuming mappings (Theorems 1, 2).
package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// Stats counts the work performed during a translation; the benchmark
// harness uses it to reproduce the paper's cost claims (Sections 4.4, 8).
type Stats struct {
	// SCMCalls counts invocations of Algorithm SCM.
	SCMCalls int
	// MatchRuns counts rule-matching passes (M(·, K) evaluations).
	MatchRuns int
	// MatchingsFound counts matchings produced across all passes.
	MatchingsFound int
	// PSafeCalls counts conjunct-partitioning invocations.
	PSafeCalls int
	// ProductTerms counts product terms (disjuncts) examined during safety
	// checking — the 2^{ne} / 2^{nk} quantity of Section 8.
	ProductTerms int
	// Disjunctivizations counts local structure rewritings performed.
	Disjunctivizations int
	// DNFDisjuncts counts disjuncts processed by Algorithm DNF.
	DNFDisjuncts int
	// RuleAttempts counts rules actually probed for matchings across all
	// match runs. With the compiled dispatch engine this is the number of
	// rules the index could not reject; the uncompiled path probes every
	// rule of the spec on every run.
	RuleAttempts int
}

// Translator binds a mapping specification and accumulates statistics.
// Its methods are not safe for concurrent use; create one per goroutine.
type Translator struct {
	Spec  *rules.Spec
	Stats Stats

	// residueClean tracks, during TranslateWithFilter, whether every SCM
	// invocation realized its conjunction exactly (empty residue).
	residueClean bool
	// fullDNFSafety switches the safety machinery to full DNF (ablation;
	// see SetFullDNFSafety).
	fullDNFSafety bool
	// trace, when non-nil, collects derivation steps (see SetTrace).
	trace *Trace
	// tracer, when non-nil, records the span tree of the translation
	// (see SetTracer); metrics, when non-nil, feeds cumulative per-rule
	// and per-algorithm counters (see SetMetrics).
	tracer  *obs.Tracer
	metrics *obs.TranslationMetrics
	// traceDepth and depSupport implement the essentialDNFSize counter:
	// the dependent-constraint support of the top-level traced query and
	// the recursion depth that scopes it (see traceEnter).
	traceDepth int
	depSupport map[string]bool

	// compiledOff and memoOff disable the compiled dispatch engine and the
	// translation-scoped matching memo; both are enabled by default (see
	// SetCompiled, SetMemo).
	compiledOff bool
	memoOff     bool
	// memo is the translation-scoped matching cache; ownMemo marks the
	// translator that created it and drops it when the outermost structural
	// call returns; depth scopes that lifetime (see begin).
	memo      *matchMemo
	ownMemo   bool
	depth     int
	memoStats MemoStats
	// shared, when non-nil, is the cross-request matchings cache consulted
	// after the translation-scoped memo (see SetMatchCache / MatchCache).
	shared *MatchCache
	// scratch holds per-translator reusable buffers for the EDNF/PSafe
	// allocation diet; forks get fresh scratch (see ednf.go, psafe.go).
	scratch struct {
		nullify []bool
	}
	// workers and sem implement bounded parallel branch mapping
	// (see SetParallelism).
	workers int
	sem     chan struct{}
}

// NewTranslator returns a translator for spec, configured by the given
// functional options (see Option and the With* constructors in options.go).
func NewTranslator(spec *rules.Spec, opts ...Option) *Translator {
	t := &Translator{Spec: spec}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// ResetStats zeroes the statistics counters.
func (t *Translator) ResetStats() { t.Stats = Stats{} }

// SetCompiled enables or disables the compiled rule-dispatch engine
// (rules.CompiledSpec). It is enabled by default; disabling it restores the
// scan-every-rule path, which produces identical matchings at higher cost
// (the equivalence the tests in memo_test.go assert).
func (t *Translator) SetCompiled(on bool) { t.compiledOff = !on }

// SetMatchCache attaches (or detaches, with nil) a shared cross-request
// matchings cache. Results and Stats are identical with or without one —
// hits replay recorded matchings with exact counter compensation — so the
// cache is observable only through its own MatchCacheStats.
//
// Deprecated: prefer the WithMatchCache option at construction time.
func (t *Translator) SetMatchCache(c *MatchCache) { WithMatchCache(c)(t) }

// MatchCache returns the attached shared matchings cache, or nil.
func (t *Translator) MatchCache() *MatchCache { return t.shared }

// SetMemo enables or disables the translation-scoped matching memo. It is
// enabled by default; results are identical either way — the memo replays
// previously derived matchings (with exact Stats compensation) instead of
// re-deriving them.
func (t *Translator) SetMemo(on bool) {
	t.memoOff = !on
	if !on && t.ownMemo {
		t.memo = nil
		t.ownMemo = false
	}
}

// matchings runs M(·, K) with counting, consulting the translation-scoped
// memo and then the shared cross-request MatchCache when either is in
// scope. Hits replay the recorded matchings and compensate the work
// counters exactly, so Stats are indistinguishable from a cache-free run.
// Under tracing both layers are bypass-or-record: lookups are skipped
// (every run must emit its match spans) but results are still recorded, so
// untraced work — in this translation or a later request — can reuse them
// and golden traces stay byte-identical.
func (t *Translator) matchings(cs []*qtree.Constraint) ([]*rules.Matching, error) {
	t.Stats.MatchRuns++
	var key string
	if t.memo != nil || t.shared != nil {
		key = memoKey(cs)
	}
	if t.tracer == nil {
		if t.memo != nil {
			if e, ok := t.memo.get(key); ok {
				t.memoStats.Hits++
				t.Stats.MatchingsFound += len(e.ms)
				t.Stats.RuleAttempts += e.probed
				return e.ms, nil
			}
		}
		if t.shared != nil {
			if e, ok := t.shared.get(t.Spec, key); ok {
				if t.memo != nil {
					// Replay into the memo so later lookups in this
					// translation stay local (no shard lock).
					t.memo.put(key, e.ms, e.probed)
					t.memoStats.Misses++
				}
				t.Stats.MatchingsFound += len(e.ms)
				t.Stats.RuleAttempts += e.probed
				return e.ms, nil
			}
		}
	} else if t.shared != nil {
		t.shared.noteBypass()
	}
	if t.memo != nil {
		t.memoStats.Misses++
	}
	ms, probed, err := t.runMatchings(cs)
	if err != nil {
		return nil, err
	}
	t.Stats.MatchingsFound += len(ms)
	t.Stats.RuleAttempts += probed
	if t.memo != nil {
		t.memo.put(key, ms, probed)
	}
	if t.shared != nil {
		t.shared.put(t.Spec, key, ms, probed)
	}
	return ms, nil
}

// runMatchings is the uncached matching pass: compiled dispatch unless
// disabled. It returns the matchings and the number of rules probed.
func (t *Translator) runMatchings(cs []*qtree.Constraint) ([]*rules.Matching, int, error) {
	if t.compiledOff {
		ms, err := t.Spec.Matchings(cs)
		return ms, len(t.Spec.Rules), err
	}
	return t.Spec.Compiled().MatchingsCounted(cs)
}

// candidateRules returns the rules a matching pass over cs will probe, in
// specification order — the compiled engine's candidates, or every rule
// when compilation is disabled. The tracing layer iterates these so traced
// and untraced translations count identical RuleAttempts.
func (t *Translator) candidateRules(cs []*qtree.Constraint) []*rules.Rule {
	if t.compiledOff {
		return t.Spec.Rules
	}
	return t.Spec.Compiled().CandidateRules(cs)
}

// Algorithm names accepted by Translate.
const (
	AlgSCM  = "scm"
	AlgDNF  = "dnf"
	AlgTDQM = "tdqm"
	// AlgCNF is the Garlic-style dependency-blind baseline (see CNFMap);
	// its output subsumes the original but is generally not minimal.
	AlgCNF = "cnf"
)

// Translate maps q with the named algorithm. AlgSCM requires a simple
// conjunction; AlgDNF, AlgTDQM and AlgCNF accept arbitrary ∧/∨ queries.
func (t *Translator) Translate(q *qtree.Node, algorithm string) (*qtree.Node, error) {
	switch algorithm {
	case AlgSCM:
		q = q.Normalize()
		if !q.IsSimpleConjunction() {
			return nil, fmt.Errorf("core: %s is not a simple conjunction; use %s or %s",
				q, AlgDNF, AlgTDQM)
		}
		res, err := t.SCM(q.SimpleConjuncts())
		if err != nil {
			return nil, err
		}
		return res.Query, nil
	case AlgDNF:
		return t.DNFMap(q)
	case AlgTDQM:
		return t.TDQM(q)
	case AlgCNF:
		return t.CNFMap(q)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", algorithm)
	}
}
