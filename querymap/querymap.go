// Package querymap is the public API of the constraint-query mapping
// library, a faithful reproduction of "Mind Your Vocabulary: Query Mapping
// Across Heterogeneous Information Sources" (Chang & García-Molina, SIGMOD
// 1999).
//
// The library translates Boolean constraint queries — expressions of
// [attr op value] and [attr1 op attr2] over ∧/∨ — from a mediator's
// vocabulary into each heterogeneous source's native vocabulary, guided by
// human-written mapping rules. Translations are minimal subsuming mappings:
// expressible at the target, never missing answers, and as selective as the
// target allows; a filter query removes the residual false positives.
//
// # Quick start
//
//	src := querymap.Amazon()
//	tr := querymap.NewTranslator(src.Spec)
//	q := querymap.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
//	s, _ := tr.Translate(q, querymap.AlgTDQM)
//	fmt.Println(s) // [author = "Clancy, Tom"]
//
// Four algorithms are provided: AlgSCM for simple conjunctions (Figure 4);
// AlgDNF — the exponential but simple baseline for complex queries
// (Figure 6); AlgTDQM (Figure 8), the paper's top-down mapper that rewrites
// query structure only where constraint dependencies require it; and
// AlgCNF, the dependency-blind Garlic-style baseline the paper's related
// work describes (correct but not minimal — for comparison studies).
//
// Mapping rules can be written in Go (package types) or in the rule DSL:
//
//	rule R6 {
//	  match [pyear = Y], [pmonth = M];
//	  where Value(Y), Value(M);
//	  let D = MonthYearToDate(M, Y);
//	  emit exact [pdate during D];
//	}
//
// See the examples/ directory for complete programs: a quick start, the
// bookstore mediator of Examples 1–2, the digital library of Example 3, and
// the map server of Example 8.
package querymap

import (
	"repro/internal/core"
	"repro/internal/datamap"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/values"
)

// Query model (package internal/qtree).
type (
	// Query is a constraint-query tree with alternating ∧/∨ interior nodes.
	Query = qtree.Node
	// Constraint is a selection [attr op value] or join [attr1 op attr2].
	Constraint = qtree.Constraint
	// Attr identifies an attribute, optionally view- and relation-qualified.
	Attr = qtree.Attr
	// Value is a typed constant (strings, ints, dates, text patterns, ...).
	Value = qtree.Value
	// ConstraintSet is a canonical set of constraints (rule matchings).
	ConstraintSet = qtree.ConstraintSet
)

// Node constructors and helpers re-exported from the query model.
var (
	// Parse parses the textual query language, e.g.
	// `[ln = "Clancy"] and ([fn = "Tom"] or [pyear = 1997])`.
	Parse = qparse.Parse
	// MustParse is Parse that panics on error.
	MustParse = qparse.MustParse
	// ParseConstraint parses a single bracketed constraint.
	ParseConstraint = qparse.ParseConstraint
	// NewAnd builds a normalized conjunction.
	NewAnd = qtree.AndOf
	// NewOr builds a normalized disjunction.
	NewOr = qtree.OrOf
	// NewLeaf wraps a constraint as a query.
	NewLeaf = qtree.Leaf
	// TrueQuery is the trivial query True.
	TrueQuery = qtree.True
	// Disjunctivize distributes a conjunction over its disjunctive
	// conjuncts (Figure 8).
	Disjunctivize = qtree.Disjunctivize
	// ToDNF converts a query into disjunctive normal form.
	ToDNF = qtree.ToDNF
	// Simplify applies Boolean absorption/implication simplification to a
	// query — useful for post-processing DNF-style translations (the
	// paper's term-minimization pointer, Section 8).
	Simplify = qtree.Simplify
	// Implies reports structural Boolean implication between queries
	// (sound, incomplete).
	Implies = qtree.Implies
)

// Rule system (package internal/rules).
type (
	// Rule is a mapping rule: head patterns + conditions, tail lets +
	// emission (Figure 3).
	Rule = rules.Rule
	// Spec is a mapping specification: the rules for one target context.
	Spec = rules.Spec
	// Registry resolves the condition and action functions rules call.
	Registry = rules.Registry
	// Target describes a source's native capabilities.
	Target = rules.Target
	// Capability is one supported (attribute, operator) combination.
	Capability = rules.Capability
	// Matching is one match of a rule head against query constraints.
	Matching = rules.Matching
	// Binding maps rule variables to bound values.
	Binding = rules.Binding
	// BoundVal is the value of a bound rule variable.
	BoundVal = rules.BoundVal
)

var (
	// ParseRules parses rule blocks in the DSL.
	ParseRules = rules.ParseRules
	// MustParseRules is ParseRules that panics on error.
	MustParseRules = rules.MustParseRules
	// NewRegistry returns a registry with the built-in conditions.
	NewRegistry = rules.NewRegistry
	// BaseRegistry returns a registry pre-loaded with the library's shared
	// conversion functions (LnFnToName, MonthYearToDate, RewriteTextPat...).
	BaseRegistry = sources.BaseRegistry
	// NewSpec assembles and validates a mapping specification.
	NewSpec = rules.NewSpec
	// NewTarget constructs a capability description.
	NewTarget = rules.NewTarget
	// FormatSpec renders a specification back to DSL text.
	FormatSpec = rules.FormatSpec
	// LintSpec statically checks a specification for common
	// rule-authoring mistakes.
	LintSpec = rules.Lint
)

// LintProblem is one finding of LintSpec.
type LintProblem = rules.Problem

// Spec algebra (packages internal/rules and internal/mediator): offline
// composition of mapping chains and structural containment checking.
type (
	// ComposeInfo reports what a composition did: rules composed, conversion
	// and constant lets recorded, exact rules retained, and per-b-rule fire
	// counts (zero-fire rules are dead under the composition).
	ComposeInfo = rules.ComposeInfo
	// ChainSpec is a multi-hop mapping chain precomposed into one spec,
	// retaining the original hops for differential checking.
	ChainSpec = mediator.ChainSpec
)

var (
	// Compose precomposes the chain a→b into one equivalent spec: translating
	// through it equals translating through a then b, after filtering.
	Compose = rules.Compose
	// ComposeDetail is Compose returning a ComposeInfo report.
	ComposeDetail = rules.ComposeDetail
	// Contains reports whether spec a subsumes spec b: for every query, a's
	// translation admits at least b's answers (sound, incomplete).
	Contains = rules.Contains
	// ContainsReport is Contains with per-rule diagnostics for the uncovered
	// rules.
	ContainsReport = rules.ContainsReport
	// LintComposition statically detects b-rules unreachable under the
	// composition a∘b.
	LintComposition = rules.LintComposition
	// NewChain composes mapping specs left to right into a ChainSpec
	// (mediator.Chain).
	NewChain = mediator.Chain
)

// Translation algorithms (package internal/core).
type (
	// Translator runs the mapping algorithms for one specification.
	Translator = core.Translator
	// TranslatorOption configures a Translator at construction time; see
	// WithParallelism, WithMatchCache, WithTracer, and friends.
	TranslatorOption = core.Option
	// Stats counts translation work (rule matching passes, product terms,
	// structure rewritings) for performance analysis.
	Stats = core.Stats
	// Partition is the safe conjunct partition computed by Algorithm PSafe.
	Partition = core.Partition
	// SCMResult is Algorithm SCM's output with matching/residue detail.
	SCMResult = core.SCMResult
	// Result is one translation outcome of Translator.Do: the mapped query,
	// the filter query, and the per-call work Stats.
	Result = core.Result
	// BatchResult is one query's outcome from Translator.TranslateBatch.
	BatchResult = core.BatchResult
	// MatchCache is a bounded, spec-keyed cache of rule-matching results
	// shared across translations and requests. Safe for concurrent use.
	MatchCache = core.MatchCache
	// MatchCacheStats is a point-in-time snapshot of a MatchCache's
	// hit/miss/eviction counters.
	MatchCacheStats = core.MatchCacheStats
)

// Translator construction options.
var (
	// WithParallelism lets branch mapping fan out over up to n workers.
	WithParallelism = core.WithParallelism
	// WithMatchCache attaches a shared cross-translation matchings cache.
	WithMatchCache = core.WithMatchCache
	// WithTracer attaches an obs span tracer.
	WithTracer = core.WithTracer
	// WithMetrics attaches cumulative translation metrics.
	WithMetrics = core.WithMetrics
	// WithMemo enables or disables the per-translation matching memo.
	WithMemo = core.WithMemo
	// WithCompiled enables or disables the compiled rule-dispatch engine.
	WithCompiled = core.WithCompiled
	// WithFullDNFSafety selects the conservative per-disjunct safety check
	// of Algorithm DNF.
	WithFullDNFSafety = core.WithFullDNFSafety
	// NewMatchCache returns a shared matchings cache holding up to capacity
	// entries (DefaultMatchCacheSize if capacity <= 0).
	NewMatchCache = core.NewMatchCache
)

// DefaultMatchCacheSize is the shared matchings-cache capacity used when a
// size is left unset.
const DefaultMatchCacheSize = core.DefaultMatchCacheSize

// Algorithm names accepted by Translator.Translate.
const (
	// AlgSCM maps simple conjunctions (Algorithm SCM, Figure 4).
	AlgSCM = core.AlgSCM
	// AlgDNF is the DNF-based baseline (Algorithm DNF, Figure 6).
	AlgDNF = core.AlgDNF
	// AlgTDQM is top-down query mapping (Algorithm TDQM, Figure 8).
	AlgTDQM = core.AlgTDQM
	// AlgCNF is the Garlic-style dependency-blind baseline (Section 3):
	// correct but generally not minimal.
	AlgCNF = core.AlgCNF
)

// NewTranslator returns a translator for the given specification,
// configured by the options:
//
//	tr := querymap.NewTranslator(src.Spec,
//		querymap.WithParallelism(4),
//		querymap.WithMatchCache(querymap.NewMatchCache(0)))
func NewTranslator(spec *Spec, opts ...TranslatorOption) *Translator {
	return core.NewTranslator(spec, opts...)
}

// WithoutRelaxations derives a specification containing only the exact
// rules of spec — the "syntactic-only" wrapper model of Section 3, for
// comparison studies.
var WithoutRelaxations = core.WithoutRelaxations

// Execution engine (package internal/engine).
type (
	// Tuple is a typed attribute→value record.
	Tuple = engine.Tuple
	// Relation is a named bag of tuples.
	Relation = engine.Relation
	// Evaluator evaluates constraint queries over tuples, with per-attribute
	// operator overrides for source-specific semantics.
	Evaluator = engine.Evaluator
	// OpFunc is a custom predicate installed with Evaluator.Override.
	OpFunc = engine.OpFunc
)

var (
	// NewEvaluator returns an evaluator with standard operator semantics.
	NewEvaluator = engine.NewEvaluator
	// NewRelation constructs a relation.
	NewRelation = engine.NewRelation
)

// Mediation (package internal/mediator).
type (
	// Mediator orchestrates multi-source translation and execution.
	Mediator = mediator.Mediator
	// Translation is the per-source mapping set plus the global filter.
	Translation = mediator.Translation
	// SourceTranslation is one source's mapping and residue.
	SourceTranslation = mediator.SourceTranslation
	// Source bundles a source's spec and native evaluator.
	Source = sources.Source
)

// NewMediator returns a mediator over the given sources using AlgTDQM.
func NewMediator(srcs ...*Source) *Mediator { return mediator.New(srcs...) }

// Serving layer (package internal/serve): concurrency and caching around
// the mediation pipeline.
type (
	// CachingTranslator memoizes mediator translations in a bounded LRU
	// keyed by the query's canonical form, with singleflight suppression
	// of concurrent duplicate misses. Safe for concurrent use.
	CachingTranslator = serve.CachingTranslator
	// ServeConfig sizes a serve.Server. The grouped sub-structs
	// (ServeCacheConfig, ServeStreamConfig, ServeResilienceConfig) are the
	// primary surface; the flat fields marked Deprecated remain as a
	// source-compatible shim.
	ServeConfig = serve.Config
	// ServeCacheConfig groups the server's cache sizing and the TinyLFU
	// admission policy (ServeConfig.Cache).
	ServeCacheConfig = serve.CacheConfig
	// ServeStreamConfig groups the streaming pipeline's knobs
	// (ServeConfig.Streaming).
	ServeStreamConfig = serve.StreamConfig
	// ServeResilienceConfig groups the per-source breaker/retry/hedge layer
	// (ServeConfig.Resilience). The zero value disables everything.
	ServeResilienceConfig = serve.ResilienceConfig
	// BreakerConfig sizes a per-source circuit breaker (sliding outcome
	// window, trip ratio, cool-down, half-open probe bound).
	BreakerConfig = resilience.BreakerConfig
	// RetryConfig tunes the full-jitter exponential backoff between source
	// retry attempts.
	RetryConfig = resilience.RetryConfig
	// HedgeConfig tunes hedged source execution (launch quantile, delay
	// floor and cap).
	HedgeConfig = resilience.HedgeConfig
	// ServeServer runs cached translation and concurrent per-source
	// fan-out over a mediator, exposing atomic serving stats.
	ServeServer = serve.Server
	// ServeStats is a snapshot of a ServeServer's counters.
	ServeStats = serve.Stats
	// ServeOption configures a ServeServer built with Serve; see
	// ServeCacheSize, ServeWorkers, ServeMatchCache, and friends.
	ServeOption = serve.Option
	// ServeBatchResult is one query's outcome from
	// ServeServer.TranslateBatch.
	ServeBatchResult = serve.BatchResult
)

// Server construction options for Serve. Each mirrors one ServeConfig
// field; the serve-side matching-cache options are prefixed to keep them
// distinct from the translator-level WithMatchCache.
var (
	// ServeCacheSize bounds the canonical translation cache in entries.
	ServeCacheSize = serve.WithCacheSize
	// ServeWorkers bounds concurrently executing source selections.
	ServeWorkers = serve.WithWorkers
	// ServeSourceTimeout bounds each per-source select+filter execution.
	ServeSourceTimeout = serve.WithSourceTimeout
	// ServeExecutor overrides the per-source selection phase.
	ServeExecutor = serve.WithExecutor
	// ServeRegistry registers the server's metrics in a caller-owned
	// registry.
	ServeRegistry = serve.WithRegistry
	// ServeMatchCache installs a caller-owned shared matchings cache.
	ServeMatchCache = serve.WithMatchCache
	// ServeMatchCacheSize sizes the server-built shared matchings cache;
	// a negative size disables cross-request matching reuse.
	ServeMatchCacheSize = serve.WithMatchCacheSize
	// ServeStreaming switches Query/QueryJoin to the tuple-at-a-time
	// per-shard pipeline with the given shard count; answers are identical
	// to the materialized path with per-request memory bounded by
	// shards × buffer in-flight tuples.
	ServeStreaming = serve.WithStreaming
	// ServeStreamBuffer sets the per-shard channel capacity on the
	// streaming path.
	ServeStreamBuffer = serve.WithStreamBuffer
	// ServeBuildBudget bounds the materialized build side of a streaming
	// join in tuples.
	ServeBuildBudget = serve.WithBuildBudget
	// ServeShardHook runs a hook at the start of every shard execution on
	// the streaming path (fault injection, admission checks).
	ServeShardHook = serve.WithShardHook
	// ServeChainDebug switches chain-backed sources to sequential
	// hop-by-hop translation (differential-checking mode).
	ServeChainDebug = serve.WithChainDebug
	// ServeIndex builds cost-based access paths (hash, sorted-array, and
	// inverted-token indexes plus per-attribute statistics) per source and
	// routes both execution paths through selectivity-ranked probes; answers
	// are byte-identical to the scan paths.
	ServeIndex = serve.WithIndex
	// ServeCacheAdmission guards the translation and matchings caches with
	// a TinyLFU admission sketch: full caches only admit entries estimated
	// more frequent than their eviction victim, so scans cannot wash out the
	// hot working set. Answers are unchanged.
	ServeCacheAdmission = serve.WithCacheAdmission
	// ServeBreaker enables per-source circuit breakers with default sizing;
	// a tripped source fails fast with the typed ErrBreakerOpen, never a
	// silently smaller answer.
	ServeBreaker = serve.WithBreaker
	// ServeBreakerConfig enables per-source circuit breakers sized by a
	// BreakerConfig.
	ServeBreakerConfig = serve.WithBreakerConfig
	// ServeRetries allows up to n total executions per source request,
	// re-running only typed transient faults with jittered backoff.
	ServeRetries = serve.WithRetries
	// ServeRetryConfig tunes the backoff between retry attempts.
	ServeRetryConfig = serve.WithRetryConfig
	// ServeHedge duplicates straggling source executions after the source's
	// latency-quantile delay and takes the first result (materialized
	// fan-out only).
	ServeHedge = serve.WithHedge
	// ServeHedgeConfig enables hedging tuned by a HedgeConfig.
	ServeHedgeConfig = serve.WithHedgeConfig
	// ServeResilienceSeed seeds the retry jitter stream for replayable
	// backoff schedules.
	ServeResilienceSeed = serve.WithResilienceSeed
	// ServeResilience replaces the whole resilience group at once.
	ServeResilience = serve.WithResilience
)

// Typed error sentinels of the serving layer, for errors.Is checks.
var (
	// ErrBuildBudget reports a streaming join whose materialized build side
	// exceeded its tuple budget.
	ErrBuildBudget = serve.ErrBuildBudget
	// ErrInjected is the typed root of every transient fault an injector
	// produces (fault-injection testing).
	ErrInjected = engine.ErrInjected
	// ErrBreakerOpen is the typed fast-fail of a tripped per-source circuit
	// breaker — the degraded-answer contract: a request that touched a
	// tripped source fails with this error, never with a silently smaller
	// answer.
	ErrBreakerOpen = serve.ErrBreakerOpen
)

// Serve wraps a mediator and its per-source data in the concurrent serving
// layer, configured by the options:
//
//	s := querymap.Serve(m, data,
//		querymap.ServeCacheSize(1024),
//		querymap.ServeWorkers(8))
func Serve(m *Mediator, data map[string]*Relation, opts ...ServeOption) *ServeServer {
	return serve.NewServer(m, data, opts...)
}

// NewCachingTranslator wraps m's Translate in a canonical LRU cache holding
// up to capacity translations. Queries that are equivalent under ∧/∨
// commutativity, associativity, and idempotence share one entry, so
// permuted duplicates translate once; concurrent identical misses are
// collapsed into a single computation.
func NewCachingTranslator(m *Mediator, capacity int) *CachingTranslator {
	return serve.NewCachingTranslator(m, capacity)
}

// NewServer wraps a mediator and its per-source data in the concurrent
// serving layer: cached translation, parallel per-source execution under a
// bounded worker pool, deterministic merging, and stats. Serve is the
// equivalent options form.
func NewServer(m *Mediator, data map[string]*Relation, cfg ServeConfig) *ServeServer {
	return serve.New(m, data, cfg)
}

// CanonicalKey returns the stable cache-key string of the query's canonical
// form: ∧/∨ child order, duplicate siblings, and join-constraint
// orientation are all abstracted away, so equivalent queries share a key.
func CanonicalKey(q *Query) string { return q.CanonicalKey() }

// Canonicalize returns the canonical representative of the query's
// equivalence class: normalized, deduplicated, children sorted.
func Canonicalize(q *Query) *Query { return q.Canonical() }

// Data translation (package internal/datamap): translating a record is the
// equality special case of constraint mapping.
type (
	// DataResult is the outcome of translating one record.
	DataResult = datamap.Result
)

// TranslateTuple translates an attribute-value record into the target
// vocabulary of the translator's specification.
var TranslateTuple = datamap.TranslateTuple

// Prebuilt sources reproducing the paper's scenarios.
var (
	// Amazon is the Figure 3 bookstore with structured author search.
	Amazon = sources.NewAmazon
	// Clbooks is Example 1's bookstore restricted to word containment.
	Clbooks = sources.NewClbooks
	// LibraryT1 is Example 3's source with paper and aubib.
	LibraryT1 = sources.NewT1
	// LibraryT2 is Example 3's source with coded-department prof.
	LibraryT2 = sources.NewT2
	// MapSource is Example 8's map server with interdependent rectangle
	// attributes.
	MapSource = sources.NewMapSource
	// Cars is Section 1's car dealer with the many-to-many
	// car-type/year ↦ make/model mapping.
	Cars = sources.NewCars
	// Metric is the unit-conversion catalog (inches → centimeters,
	// dollars → cents) across all comparison operators.
	Metric = sources.NewMetric
)

// Bound-value constructors for writing rule action functions.
var (
	// ValueOf wraps a constant value for a rule binding.
	ValueOf = rules.ValueOf
	// AttrOf wraps an attribute for a rule binding.
	AttrOf = rules.AttrOf
)

// ValueOfString wraps a string constant for a rule binding.
func ValueOfString(s string) BoundVal { return rules.ValueOf(values.String(s)) }

// ValueOfInt wraps an integer constant for a rule binding.
func ValueOfInt(i int64) BoundVal { return rules.ValueOf(values.Int(i)) }

// StringValue extracts the raw text of a string value.
func StringValue(v Value) (string, bool) {
	s, ok := v.(values.String)
	if !ok {
		return "", false
	}
	return s.Raw(), true
}

// IntValue extracts an integer value.
func IntValue(v Value) (int64, bool) {
	i, ok := v.(values.Int)
	if !ok {
		return 0, false
	}
	return int64(i), true
}

// FloatValue extracts a numeric value (integer or float).
func FloatValue(v Value) (float64, bool) { return values.Numeric(v) }

// Common value constructors for building queries programmatically.
var (
	// Str builds a string value.
	Str = func(s string) Value { return values.String(s) }
	// Int builds an integer value.
	Int = func(i int64) Value { return values.Int(i) }
	// Date builds a (possibly partial) date value.
	Date = func(year, month, day int) Value { return values.Date{Year: year, Month: month, Day: day} }
	// Pattern parses a text pattern such as "data(near)mining".
	Pattern = values.ParsePattern
)
