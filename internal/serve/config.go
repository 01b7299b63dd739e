package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
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
	// error-rate window.
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
	// attempt completes first, cancelling the loser.
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
type Config struct {
	// Cache groups the translation-cache, matchings-cache, and
	// admission-policy knobs.
	Cache CacheConfig
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
	// Index builds a cost-based access path (engine.Access) per data
	// relation at construction time — hash, sorted-array, and
	// inverted-token indexes plus per-attribute statistics, one set for
	// sources that share a relation — and answers every source selection
	// through selectivity-ranked index probes. Answers are byte-identical
	// (content, order, and errors) to the scan path; queries the planner
	// cannot probe soundly fall back to scanning automatically.
	Index bool
	// ChainDebug switches the mediator's chain-backed sources (see
	// mediator.AddChainSource) to sequential hop-by-hop translation through
	// the original specs instead of the precomposed one. Filtered answers
	// are identical; this is the differential-checking mode, not a serving
	// optimization.
	ChainDebug bool
}
