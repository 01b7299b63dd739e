package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Option configures a Server at construction time; pass options to
// NewServer. Each option corresponds to one Config field, and
// NewServer(med, data) with no options is equivalent to
// New(med, data, Config{}).
type Option func(*Config)

// WithCacheSize bounds the translation cache in entries
// (DefaultCacheSize if n <= 0).
func WithCacheSize(n int) Option {
	return func(c *Config) { c.Cache.Size = n }
}

// WithWorkers bounds concurrently executing source selections across all
// requests (2×GOMAXPROCS if n <= 0).
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithSourceTimeout bounds each per-source select+filter execution
// (no timeout if d == 0).
func WithSourceTimeout(d time.Duration) Option {
	return func(c *Config) { c.SourceTimeout = d }
}

// WithExecutor overrides the per-source selection phase
// (DefaultExecutor if nil).
func WithExecutor(exec SourceExecutor) Option {
	return func(c *Config) { c.Executor = exec }
}

// WithRegistry registers the server's metrics in reg instead of a private
// registry. A registry must back at most one server.
func WithRegistry(reg *obs.Registry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithMatchCache installs mc as the shared cross-request matchings cache,
// overriding WithMatchCacheSize. Use it to share one cache between several
// servers over the same rule specs.
func WithMatchCache(mc *core.MatchCache) Option {
	return func(c *Config) { c.Cache.MatchCache = mc }
}

// WithMatchCacheSize bounds the shared matchings cache built by the server
// (core.DefaultMatchCacheSize if n == 0); a negative n disables
// cross-request matching reuse entirely.
func WithMatchCacheSize(n int) Option {
	return func(c *Config) { c.Cache.MatchCacheSize = n }
}

// WithIndex builds a cost-based access path per data relation at
// construction time and answers every source selection through
// selectivity-ranked index probes. Answers are byte-identical to the scan
// path.
func WithIndex(on bool) Option {
	return func(c *Config) { c.Index = on }
}

// WithChainDebug switches the mediator's chain-backed sources to sequential
// hop-by-hop translation through the original specs (differential-checking
// mode; filtered answers are identical to the composed path's).
func WithChainDebug(on bool) Option {
	return func(c *Config) { c.ChainDebug = on }
}

// WithCacheAdmission puts a TinyLFU frequency sketch in front of the
// translation cache and the shared matchings cache: full caches only admit
// entries estimated more frequent than their eviction victim, so scan-like
// traffic cannot wash out the hot working set. Answers are unchanged.
func WithCacheAdmission(on bool) Option {
	return func(c *Config) { c.Cache.Admission = on }
}

// WithBreaker enables per-source circuit breakers with the package-default
// sizing (window 32, ratio 0.5, min samples 8, open 1s, 1 probe). A source
// whose breaker is open fails its requests fast with the typed
// ErrBreakerOpen — never a silently smaller answer.
func WithBreaker(on bool) Option {
	return func(c *Config) { c.Resilience.Breaker = on }
}

// WithBreakerConfig enables per-source circuit breakers sized by bc (zero
// fields take the package defaults).
func WithBreakerConfig(bc resilience.BreakerConfig) Option {
	return func(c *Config) { c.Resilience.Breaker = true; c.Resilience.BreakerConfig = bc }
}

// WithRetries allows up to n total executions per source request (the
// first included; n <= 1 disables retry), re-running only typed transient
// faults with full-jitter exponential backoff.
func WithRetries(n int) Option {
	return func(c *Config) { c.Resilience.Retries = n }
}

// WithRetryConfig tunes the backoff between retry attempts (zero fields
// take the package defaults). Pair with WithRetries, which sets the
// attempt bound.
func WithRetryConfig(rc resilience.RetryConfig) Option {
	return func(c *Config) { c.Resilience.RetryConfig = rc }
}

// WithHedge launches a duplicate of a straggling source execution after
// that source's tracked latency-quantile delay and takes the first result,
// cancelling the loser.
func WithHedge(on bool) Option {
	return func(c *Config) { c.Resilience.Hedge = on }
}

// WithHedgeConfig enables hedging tuned by hc (zero fields take the
// package defaults: p95 delay, 1ms floor, 1s cap).
func WithHedgeConfig(hc resilience.HedgeConfig) Option {
	return func(c *Config) { c.Resilience.Hedge = true; c.Resilience.HedgeConfig = hc }
}

// WithResilienceSeed seeds the retry jitter stream, making backoff
// schedules replayable (a fixed default seed if 0).
func WithResilienceSeed(seed int64) Option {
	return func(c *Config) { c.Resilience.Seed = seed }
}

// WithResilience replaces the whole resilience group at once — the Config
// form for callers that already hold a ResilienceConfig.
func WithResilience(rc ResilienceConfig) Option {
	return func(c *Config) { c.Resilience = rc }
}

// NewServer is the options form of New: it applies opts to a zero Config
// and builds the server.
func NewServer(med *mediator.Mediator, data map[string]*engine.Relation, opts ...Option) *Server {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return New(med, data, cfg)
}
