package serve

import (
	"repro/internal/obs"
)

// LatencyBounds are the finite upper bounds (in seconds) of the per-source
// latency histogram, following the Prometheus "le" convention: bucket i
// counts executions taking <= LatencyBounds[i] seconds; the last bucket is
// unbounded (+Inf).
func LatencyBounds() []float64 {
	return []float64{100e-6, 1e-3, 10e-3, 100e-3, 1}
}

// NumLatencyBuckets is the number of histogram buckets (len(bounds)+1 for
// the unbounded tail).
const NumLatencyBuckets = 6

// LatencyBucketLabels returns human-readable labels for the histogram
// buckets, index-aligned with SourceStats.LatencyBuckets.
func LatencyBucketLabels() []string {
	return []string{"<=100us", "<=1ms", "<=10ms", "<=100ms", "<=1s", ">1s"}
}

// sourceCounters holds one source's registry-backed execution collectors.
// Executions and latency come from the histogram (its count is the number
// of completed executions); timeouts are a separate counter.
type sourceCounters struct {
	timeouts *obs.Counter
	lat      *obs.Histogram
}

// latencyBuckets converts the histogram snapshot to the fixed per-bucket
// array of the Stats JSON shape.
func (sc *sourceCounters) latencyBuckets() [NumLatencyBuckets]uint64 {
	var out [NumLatencyBuckets]uint64
	s := sc.lat.Snapshot()
	for i := 0; i < len(s.Counts) && i < NumLatencyBuckets; i++ {
		out[i] = s.Counts[i]
	}
	return out
}

// SourceStats is a snapshot of one source's execution counters.
type SourceStats struct {
	// Executions counts completed select+filter phases (successes and
	// evaluation errors; not admissions lost to timeouts).
	Executions uint64 `json:"executions"`
	// Timeouts counts executions abandoned because the per-source deadline
	// or the request context fired first.
	Timeouts uint64 `json:"timeouts"`
	// LatencyBuckets is the coarse completion-latency histogram,
	// index-aligned with LatencyBucketLabels.
	LatencyBuckets [NumLatencyBuckets]uint64 `json:"latency_buckets"`
	// BreakerState is the source's circuit-breaker state ("closed", "open",
	// "half-open") — "closed" when breakers are off.
	BreakerState string `json:"breaker_state"`
}

// Stats is a point-in-time snapshot of a Server's counters. All counters
// are cumulative since construction.
type Stats struct {
	// Requests counts Translate and Query/QueryJoin calls.
	Requests uint64 `json:"requests"`
	// InFlight is the number of Query/QueryJoin calls currently executing.
	InFlight int64 `json:"in_flight"`
	// CacheHits counts translations served from the resident cache.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses counts translations actually computed.
	CacheMisses uint64 `json:"cache_misses"`
	// CacheShared counts duplicate concurrent misses collapsed onto another
	// caller's in-flight computation (singleflight suppression).
	CacheShared uint64 `json:"cache_shared"`
	// CacheEntries is the number of resident cache entries.
	CacheEntries int `json:"cache_entries"`
	// CacheEvictions counts entries evicted for capacity.
	CacheEvictions uint64 `json:"cache_evictions"`
	// MatchCacheHits counts matching lookups served from the shared
	// cross-request matchings cache (zero when the cache is disabled).
	MatchCacheHits uint64 `json:"matchcache_hits"`
	// MatchCacheMisses counts matching lookups that derived fresh matchings,
	// including traced bypasses.
	MatchCacheMisses uint64 `json:"matchcache_misses"`
	// MatchCacheEvictions counts shared matchings-cache entries evicted for
	// capacity.
	MatchCacheEvictions uint64 `json:"matchcache_evictions"`
	// MatchCacheEntries is the number of resident shared matchings-cache
	// entries.
	MatchCacheEntries int `json:"matchcache_entries"`
	// PlanHits and PlanMisses are always zero: no fragment cache sits
	// between the translation cache and the matchings cache. They stay, out
	// of the JSON shape, because perfbench still reads them.
	PlanHits   uint64 `json:"-"`
	PlanMisses uint64 `json:"-"`
	// IndexProbes counts index probes executed by the access-path planner,
	// one per planned disjunct (zero when indexing is off).
	IndexProbes uint64 `json:"index_probes"`
	// IndexFallbacks counts selections answered by a full scan because no
	// sound probe existed for the query.
	IndexFallbacks uint64 `json:"index_fallbacks"`
	// IndexScanned counts tuples evaluated by selections: probe candidates
	// on indexed executions, whole universes on fallbacks.
	IndexScanned uint64 `json:"index_scanned_tuples"`
	// BreakerTrips counts circuit-breaker transitions to the open state
	// across all sources (zero when breakers are off).
	BreakerTrips uint64 `json:"breaker_trips"`
	// HedgesLaunched counts hedged source attempts launched after the
	// latency-quantile delay (zero when hedging is off).
	HedgesLaunched uint64 `json:"hedges_launched"`
	// HedgesWon counts hedged attempts whose result was the one returned.
	HedgesWon uint64 `json:"hedges_won"`
	// Retries counts source execution re-runs after typed transient faults
	// (zero when retry is off).
	Retries uint64 `json:"retries"`
	// AdmissionRejected counts cache inserts refused by the TinyLFU
	// admission policy, translation and matchings caches combined (zero
	// when admission is off).
	AdmissionRejected uint64 `json:"admission_rejected"`
	// Timeouts counts per-source executions cut off by a deadline.
	Timeouts uint64 `json:"timeouts"`
	// Errors counts requests that returned an error.
	Errors uint64 `json:"errors"`
	// Sources holds per-source execution counters by source name.
	Sources map[string]SourceStats `json:"sources"`
	// LatencyLabels labels the histogram buckets.
	LatencyLabels []string `json:"latency_labels"`
}

// HitRate returns the fraction of translation lookups that skipped a fresh
// computation (resident hits plus singleflight-shared results).
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses + s.CacheShared
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits+s.CacheShared) / float64(total)
}
