// Package resilience holds the per-source fault-absorption primitives the
// serving layer composes around heterogeneous sources: circuit breakers,
// bounded retry with jittered exponential backoff, hedged requests, and a
// TinyLFU admission sketch for the caches.
//
// The mediator of the paper integrates sources it does not control — any
// wrapper can be slow or flaky independently of the others — so the serving
// layer needs machinery that contains one source's misbehavior without
// degrading the union answer:
//
//   - Breaker is a per-source circuit breaker (closed → open → half-open)
//     over a sliding outcome window. A tripped breaker fails fast with the
//     typed ErrBreakerOpen instead of queueing work behind a dead source —
//     the degraded-answer contract is "typed per-source error, never silent
//     omission".
//   - Retrier bounds re-execution of transiently failed source requests,
//     with full-jitter exponential backoff so synchronized retries cannot
//     re-stampede a recovering source.
//   - Hedge launches a second attempt of a straggling request after a
//     latency-quantile delay (LatencyTracker) and takes whichever attempt
//     completes first, cancelling the loser — the classic tail-at-scale
//     tool for per-source p99 latency.
//   - Sketch is a TinyLFU admission filter (Einziger et al.): a 4-bit
//     count-min sketch with periodic aging that lets a cache reject
//     insertions whose estimated frequency is below the eviction victim's,
//     so one-off scan traffic cannot wash out the hot working set.
//   - LRU is the bounded cache the sketch guards, segmented under
//     admission so a falsely admitted key cannot evict the working set
//     one entry after another.
//
// Everything here is stdlib-only, safe for concurrent use (except LRU,
// which its caller locks), and — like every optimization layer in this
// repository — semantics-preserving: breakers, retries, and hedges only
// ever re-run or refuse pure per-source executions, so a clean
// (fault-free) run produces answers byte-identical to the unprotected
// path.
package resilience
