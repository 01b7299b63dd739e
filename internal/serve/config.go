package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// CacheConfig groups the server's cache sizing: the canonical translation
// cache, the shared cross-request matchings cache, and the TinyLFU
// admission policy guarding both.
type CacheConfig struct {
	// Size bounds the translation cache in entries
	// (DefaultCacheSize if <= 0).
	Size int
	// Admission puts a TinyLFU frequency sketch in front of the translation
	// cache and the shared matchings cache: a full cache only admits a new
	// entry whose estimated access frequency strictly exceeds the eviction
	// victim's (the least recently used entry not hit since insertion, else
	// the least recently used one), so scan-like traffic (a flood of
	// one-off queries) cannot wash out the hot working set. Rejections are
	// counted in qmap_admission_rejected_total. Admission never changes
	// answers — a rejected insert is still returned to its caller, just not
	// cached.
	Admission bool
	// MatchCache, when non-nil, is the shared cross-request matchings cache
	// the server installs on its mediator. Nil builds one sized by
	// MatchCacheSize.
	MatchCache *core.MatchCache
	// MatchCacheSize bounds the shared matchings cache in entries when
	// MatchCache is nil (core.DefaultMatchCacheSize if 0); a negative size
	// disables cross-request matching reuse entirely.
	MatchCacheSize int
}

// StreamConfig groups the streaming execution pipeline's knobs.
type StreamConfig struct {
	// Enabled switches Query/QueryJoin to the tuple-at-a-time pipeline of
	// internal/stream: per-shard executors over presorted universes, bounded
	// channels, and a deterministic k-way merge. Answers are byte-identical
	// to the materialized path; per-request memory is bounded by
	// Shards × Buffer in-flight tuples instead of result size. Shard
	// executors bypass the Workers pool (the merge needs one tuple from
	// every shard before emitting, so cross-shard admission control could
	// deadlock a request against itself); SourceTimeout applies per shard.
	Enabled bool
	// Shards is the number of shards each source's universe splits into
	// (1 if <= 0).
	Shards int
	// Buffer is the per-shard channel capacity (stream.DefaultBuffer
	// if <= 0).
	Buffer int
	// BuildBudget bounds the materialized build side of a streaming join in
	// tuples (DefaultBuildBudget if <= 0); exceeding it fails the request
	// with ErrBuildBudget.
	BuildBudget int
	// Hook, when non-nil, runs at the start of every shard execution — the
	// per-shard analogue of wrapping Executor, used for fault injection
	// (engine.Injector.ApplyShard) and admission checks. When resilience is
	// on, the server wraps it with breaker admission and bounded retry.
	Hook stream.Hook
}

// ResilienceConfig groups the per-source fault-absorption layer (package
// resilience). The zero value disables everything — the server behaves
// exactly as without the layer. All three mechanisms are semantics-
// preserving on clean runs: answers are byte-identical to the unprotected
// path, because breakers only trip on errors, retries only re-run pure
// failed executions, and hedges duplicate pure executions.
//
// Degraded-answer contract: a source whose breaker is open fails its
// requests fast with resilience.ErrBreakerOpen (wrapped with the source
// name). The request as a whole fails with that typed error — a tripped
// source is never silently omitted from a union or join answer.
type ResilienceConfig struct {
	// Breaker enables a per-source circuit breaker over a sliding
	// error-rate window, on both the materialized fan-out and the streaming
	// shard path.
	Breaker bool
	// BreakerConfig tunes the breakers (zero fields take the package
	// defaults: window 32, ratio 0.5, min samples 8, open 1s, 1 probe).
	BreakerConfig resilience.BreakerConfig
	// Retries is the total number of executions allowed per source request,
	// the first included; <= 1 disables retry. Only typed transient faults
	// (engine.ErrInjected) are retried — evaluation errors and deadlines
	// are not.
	Retries int
	// RetryConfig tunes the full-jitter exponential backoff between
	// attempts (zero fields take the package defaults). Its MaxAttempts is
	// overridden by Retries.
	RetryConfig resilience.RetryConfig
	// Hedge launches a duplicate of a straggling source execution after
	// that source's tracked latency-quantile delay and takes whichever
	// attempt completes first, cancelling the loser. Hedging applies to the
	// materialized fan-out only: a streaming shard's output is an ordered
	// channel feeding the deterministic merge, so duplicating it cannot be
	// raced without forfeiting the determinism contract.
	Hedge bool
	// HedgeConfig tunes the hedge delay policy (zero fields take the
	// package defaults: p95, 1ms floor, 1s cap).
	HedgeConfig resilience.HedgeConfig
	// Seed seeds the retry jitter stream (a fixed default if 0), making
	// backoff schedules replayable in tests.
	Seed int64
}

// enabled reports whether any resilience mechanism is on.
func (r ResilienceConfig) enabled() bool {
	return r.Breaker || r.Retries > 1 || r.Hedge
}

// Config sizes a Server. The zero value is a working default; NewServer
// offers the same knobs as functional options.
//
// The grouped sub-structs (Cache, Streaming, Resilience) are the primary
// surface. The flat fields marked Deprecated are a source-compatibility
// shim for configurations written before the regrouping: each one feeds
// the corresponding grouped field when that field is unset, and the
// grouped field wins when both are set. New code should set the groups.
type Config struct {
	// Cache groups the translation-cache, matchings-cache, and
	// admission-policy knobs.
	Cache CacheConfig
	// Streaming groups the tuple-at-a-time pipeline knobs.
	Streaming StreamConfig
	// Resilience groups the per-source breaker/retry/hedge layer.
	Resilience ResilienceConfig

	// Workers bounds concurrently executing source selections across all
	// requests (2×GOMAXPROCS if <= 0).
	Workers int
	// SourceTimeout bounds each per-source select+filter execution
	// (no timeout if 0).
	SourceTimeout time.Duration
	// Executor overrides the per-source selection phase
	// (DefaultExecutor if nil).
	Executor SourceExecutor
	// Metrics is the registry the server's counters, gauges, and histograms
	// are registered in (a private registry if nil). A registry must back at
	// most one server: the server registers fixed metric names and duplicate
	// registration panics.
	Metrics *obs.Registry
	// Index builds a cost-based access path (engine.Access) per source at
	// construction time — hash, sorted-array, and inverted-token indexes
	// plus per-attribute statistics — and routes both execution paths
	// through selectivity-ranked index probes. Answers are byte-identical
	// (content, order, and errors) to the scan paths; queries the planner
	// cannot probe soundly fall back to scanning automatically.
	Index bool
	// ChainDebug switches the mediator's chain-backed sources (see
	// mediator.AddChainSource) to sequential hop-by-hop translation through
	// the original specs instead of the precomposed one. Filtered answers
	// are identical; this is the differential-checking mode, not a serving
	// optimization.
	ChainDebug bool

	// CacheSize bounds the translation cache in entries.
	//
	// Deprecated: set Cache.Size. Applied only when Cache.Size is 0.
	CacheSize int
	// MatchCache is the shared cross-request matchings cache.
	//
	// Deprecated: set Cache.MatchCache. Applied only when Cache.MatchCache
	// is nil.
	MatchCache *core.MatchCache
	// MatchCacheSize bounds the shared matchings cache.
	//
	// Deprecated: set Cache.MatchCacheSize. Applied only when
	// Cache.MatchCacheSize is 0.
	MatchCacheSize int
	// Stream enables the streaming pipeline.
	//
	// Deprecated: set Streaming.Enabled. Applied only when
	// Streaming.Enabled is false.
	Stream bool
	// Shards is the per-source shard count on the streaming path.
	//
	// Deprecated: set Streaming.Shards. Applied only when Streaming.Shards
	// is 0.
	Shards int
	// StreamBuffer is the per-shard channel capacity.
	//
	// Deprecated: set Streaming.Buffer. Applied only when Streaming.Buffer
	// is 0.
	StreamBuffer int
	// BuildBudget bounds the build side of a streaming join.
	//
	// Deprecated: set Streaming.BuildBudget. Applied only when
	// Streaming.BuildBudget is 0.
	BuildBudget int
	// ShardHook runs at the start of every shard execution.
	//
	// Deprecated: set Streaming.Hook. Applied only when Streaming.Hook is
	// nil.
	ShardHook stream.Hook
}

// normalized folds the deprecated flat fields into the grouped sub-structs
// and returns the canonical configuration New actually reads: each flat
// field applies only when its grouped counterpart is unset, so old-style
// and new-style configurations of the same values build identical servers
// (proved by the equivalence tests), and the groups win on conflict.
func (c Config) normalized() Config {
	if c.Cache.Size == 0 {
		c.Cache.Size = c.CacheSize
	}
	if c.Cache.MatchCache == nil {
		c.Cache.MatchCache = c.MatchCache
	}
	if c.Cache.MatchCacheSize == 0 {
		c.Cache.MatchCacheSize = c.MatchCacheSize
	}
	if !c.Streaming.Enabled {
		c.Streaming.Enabled = c.Stream
	}
	if c.Streaming.Shards == 0 {
		c.Streaming.Shards = c.Shards
	}
	if c.Streaming.Buffer == 0 {
		c.Streaming.Buffer = c.StreamBuffer
	}
	if c.Streaming.BuildBudget == 0 {
		c.Streaming.BuildBudget = c.BuildBudget
	}
	if c.Streaming.Hook == nil {
		c.Streaming.Hook = c.ShardHook
	}
	return c
}
