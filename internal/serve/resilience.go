package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// ErrBreakerOpen is re-exported from package resilience so serve callers
// can errors.Is a degraded answer without importing it: a request that
// touched a tripped source fails with this typed error, never with a
// silently smaller answer.
var ErrBreakerOpen = resilience.ErrBreakerOpen

// defaultResilienceSeed seeds the retry jitter when ResilienceConfig.Seed
// is 0, keeping backoff schedules replayable by default.
const defaultResilienceSeed = 1

// sourceResilience is one source's fault-absorption state: its circuit
// breaker (nil when breakers are off) and the latency tracker feeding the
// hedge delay (nil when hedging is off). The retrier is shared server-wide
// (backoff jitter need not be source-scoped).
type sourceResilience struct {
	breaker *resilience.Breaker
	lat     *resilience.LatencyTracker
}

// initResilience builds the per-source resilience state for rc. With the
// zero config it leaves everything nil and the serving paths run exactly
// as before the layer existed.
func (s *Server) initResilience(rc ResilienceConfig) {
	if !rc.enabled() {
		return
	}
	if rc.Retries > 1 {
		cfg := rc.RetryConfig
		cfg.MaxAttempts = rc.Retries
		seed := rc.Seed
		if seed == 0 {
			seed = defaultResilienceSeed
		}
		s.retrier = resilience.NewRetrier(seed, cfg)
	}
	s.res = make(map[string]*sourceResilience, len(s.med.Sources))
	for _, src := range s.med.Sources {
		rs := &sourceResilience{}
		if rc.Breaker {
			rs.breaker = resilience.NewBreaker(rc.BreakerConfig)
		}
		if rc.Hedge {
			rs.lat = &resilience.LatencyTracker{}
		}
		s.res[src.Name] = rs
	}
}

// breakerState returns the numeric breaker state for the named source
// (0 closed, 1 open, 2 half-open) — 0 when breakers are off, so the
// qmap_breaker_state gauge always exports.
func (s *Server) breakerState(source string) int {
	rs := s.res[source]
	if rs == nil || rs.breaker == nil {
		return 0
	}
	return int(rs.breaker.State())
}

// breakerTrips sums breaker trips across all sources.
func (s *Server) breakerTrips() uint64 {
	var n uint64
	for _, rs := range s.res {
		if rs.breaker != nil {
			n += rs.breaker.Trips()
		}
	}
	return n
}

// admissionRejected sums TinyLFU admission rejections across the
// translation cache and the shared matchings cache.
func (s *Server) admissionRejected() uint64 {
	n := s.tr.AdmissionRejected()
	if s.mc != nil {
		n += s.mc.AdmissionRejected()
	}
	return n
}

// retryableFault reports whether a source error is worth re-executing:
// only typed transient faults. Evaluation errors are deterministic (the
// retry would fail identically), and a blown deadline has no time left to
// retry in.
func retryableFault(err error) bool {
	return errors.Is(err, engine.ErrInjected)
}

// sourceFailure reports whether a source outcome should count against its
// breaker. Cancellation is excluded: a request abandoned by its caller (or
// a hedge loser cancelled by the winner) says nothing about the source's
// health.
func sourceFailure(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled)
}

// sourceEvents collects one source's resilience activity during a request,
// for the post-merge trace spans. Each fan-out goroutine writes its own
// index-aligned entry; the request goroutine reads them after wg.Wait.
type sourceEvents struct {
	breakerDenied bool
	retries       int
	hedgeLaunched bool
	hedgeWon      bool
}

// runSource is the per-source operation of the fan-out with the full
// resilience stack applied, layered breaker → retry → hedge:
//
//	breaker.Allow gates the whole operation (typed ErrBreakerOpen when
//	open — the degraded-answer contract), each retry attempt is a hedged
//	execution, and the breaker records the operation's final outcome, so
//	Allow/Record stay paired exactly once per request per source.
func (s *Server) runSource(ctx context.Context, tr *mediator.Translation, st *mediator.SourceTranslation, branchFilter bool, ev *sourceEvents) (*engine.Relation, error) {
	name := st.Source.Name
	rs := s.res[name]
	if rs != nil && rs.breaker != nil {
		if err := rs.breaker.Allow(); err != nil {
			if ev != nil {
				ev.breakerDenied = true
			}
			return nil, fmt.Errorf("serve: source %s: %w", name, err)
		}
	}
	rel, err := s.runSourceAttempts(ctx, tr, st, branchFilter, rs, ev)
	if rs != nil && rs.breaker != nil {
		rs.breaker.Record(sourceFailure(err))
	}
	return rel, err
}

// runSourceAttempts runs the bounded-retry loop whose attempts are hedged
// executions (or plain ones when hedging is off).
func (s *Server) runSourceAttempts(ctx context.Context, tr *mediator.Translation, st *mediator.SourceTranslation, branchFilter bool, rs *sourceResilience, ev *sourceEvents) (*engine.Relation, error) {
	attempt := func(ctx context.Context) (*engine.Relation, error) {
		return s.execSourceOnce(ctx, tr, st, branchFilter, rs)
	}
	if rs != nil && rs.lat != nil {
		single := attempt
		attempt = func(ctx context.Context) (*engine.Relation, error) {
			delay := resilience.HedgeDelay(rs.lat, s.resCfg.HedgeConfig)
			rel, err, launched, won := resilience.Hedge(ctx, delay, single)
			if launched {
				s.hedgeLaunched.Inc()
				if ev != nil {
					ev.hedgeLaunched = true
				}
			}
			if won {
				s.hedgeWon.Inc()
				if ev != nil {
					ev.hedgeWon = true
				}
			}
			return rel, err
		}
	}
	if s.retrier == nil {
		return attempt(ctx)
	}
	rel, retries, err := resilience.Do(ctx, s.retrier, retryableFault, attempt)
	if retries > 0 {
		s.retriesCtr.Add(uint64(retries))
		if ev != nil {
			ev.retries = retries
		}
	}
	return rel, err
}

// execSourceOnce admits one source execution to the worker pool, runs it in
// a goroutine, and waits for completion or deadline — one attempt of the
// resilience stack, and the entire per-source path when the stack is off.
func (s *Server) execSourceOnce(ctx context.Context, tr *mediator.Translation, st *mediator.SourceTranslation, branchFilter bool, rs *sourceResilience) (*engine.Relation, error) {
	name := st.Source.Name
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: source %s: %w", name, ctx.Err())
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	sc := s.sources[name]
	start := time.Now()
	type result struct {
		rel *engine.Relation
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() { <-s.sem }()
		rel, err := s.evalSource(ctx, tr, st, branchFilter)
		ch <- result{rel, err}
	}()
	select {
	case r := <-ch:
		elapsed := time.Since(start)
		if sc != nil {
			sc.lat.ObserveDuration(elapsed)
		}
		if rs != nil && rs.lat != nil && r.err == nil {
			rs.lat.Observe(elapsed)
		}
		return r.rel, r.err
	case <-ctx.Done():
		// The engine has no cancellation points: the worker keeps its pool
		// slot until the abandoned scan finishes, and its result is
		// discarded. Admission control stays accurate. Only deadlines count
		// as timeouts — a cancelled context (caller gone, or a hedge loser
		// cancelled by the winner) is not a slow source.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.timeouts.Inc()
			if sc != nil {
				sc.timeouts.Inc()
			}
		}
		return nil, fmt.Errorf("serve: source %s: %w", name, ctx.Err())
	}
}

// resilienceSpan emits the per-source breaker and hedge summary spans when
// the request context carries a tracer and the resilience layer is on.
// Called after the merge, on the single request goroutine (the tracer's
// single-writer contract), mirroring accessSpan.
func (s *Server) resilienceSpan(ctx context.Context, tr *mediator.Translation, events []sourceEvents) {
	if !s.resCfg.enabled() {
		return
	}
	t := obs.TracerFrom(ctx)
	if t == nil {
		return
	}
	for i := range tr.Sources {
		name := tr.Sources[i].Source.Name
		rs := s.res[name]
		if rs == nil {
			continue
		}
		var ev sourceEvents
		if i < len(events) {
			ev = events[i]
		}
		if rs.breaker != nil {
			sp := t.Start(obs.KindBreaker, name+" "+rs.breaker.State().String())
			sp.Set("trips", int64(rs.breaker.Trips()))
			denied := int64(0)
			if ev.breakerDenied {
				denied = 1
			}
			sp.Set("denied", denied)
			t.End()
		}
		if s.resCfg.Hedge || s.retrier != nil {
			sp := t.Start(obs.KindHedge, name)
			launched, won := int64(0), int64(0)
			if ev.hedgeLaunched {
				launched = 1
			}
			if ev.hedgeWon {
				won = 1
			}
			sp.Set("launched", launched)
			sp.Set("won", won)
			sp.Set("retries", int64(ev.retries))
			t.End()
		}
	}
}
