package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qtree"
	"repro/internal/resilience"
	"repro/internal/serve"
	"repro/internal/sources"
)

// permute returns a deep copy of q with every interior node's children
// reversed — a structurally different but canonically equivalent query, used
// to exercise the serving layer's canonical translation cache.
func permute(q *qtree.Node) *qtree.Node {
	cp := q.Clone()
	var rev func(n *qtree.Node)
	rev = func(n *qtree.Node) {
		for i, j := 0, len(n.Kids)-1; i < j; i, j = i+1, j-1 {
			n.Kids[i], n.Kids[j] = n.Kids[j], n.Kids[i]
		}
		for _, k := range n.Kids {
			rev(k)
		}
	}
	rev(cp)
	return cp
}

// cache64 is the translation cache every serve grid point runs with.
var cache64 = serve.CacheConfig{Size: 64}

// serveConfig is one point of the serve-equivalence grid.
type serveConfig struct {
	name string
	cfg  serve.Config
	// fresh rebuilds the server per request — a cold cache every time,
	// equivalent to serving with the translation cache off.
	fresh bool
}

// checkServe stands up the serving stack over the case's scenario — the data
// split across two sources sharing the scenario's vocabulary — and demands
// that every grid point — cache on / effectively off × sequential / parallel
// workers, with and without access paths and the resilience layer — answers
// both the original query and a structurally permuted equivalent
// byte-identically to the sequential mediator baseline
// (mediator.ExecuteUnion). With Options.Faults set it re-runs the grid under
// an injected fault mix (transient errors, benign delays, timeout-tripping
// stalls) and additionally demands that failures carry only typed errors and
// that retrying reaches the exact baseline answer.
func (h *Harness) checkServe(c *Case) *Violation {
	med, data := c.serveStack()
	want, _, err := med.ExecuteUnion(c.Query, data)
	if err != nil {
		return &Violation{Oracle: "harness", Detail: fmt.Sprintf("mediator baseline: %v", err)}
	}
	wantS := renderRelation(want)
	permuted := permute(c.Query)

	grid := []serveConfig{
		{name: "seq/cache", cfg: serve.Config{Workers: 1, Cache: cache64}},
		{name: "par/cache", cfg: serve.Config{Workers: 4, Cache: cache64}},
		{name: "par/nocache", cfg: serve.Config{Workers: 4, Cache: cache64}, fresh: true},
		// The index dimension: cost-based access paths must reproduce the
		// scan path byte-identically (content and order).
		{name: "seq/cache/index", cfg: serve.Config{Workers: 1, Cache: cache64, Index: true}},
		{name: "par/cache/index", cfg: serve.Config{Workers: 4, Cache: cache64, Index: true}},
		// The resilience dimension ({breaker on/off} × {hedge on/off}, plus
		// retries and TinyLFU cache admission): all of it must be invisible
		// on clean runs — answers byte-identical to the unprotected path,
		// because breakers only trip on errors, retries only re-run failed
		// executions, hedges duplicate pure selections, and admission only
		// decides what is cached, never what is answered.
		{name: "par/cache/breaker", cfg: serve.Config{Workers: 4, Cache: cache64,
			Resilience: serve.ResilienceConfig{Breaker: true}}},
		{name: "par/cache/hedge", cfg: serve.Config{Workers: 4, Cache: cache64,
			Resilience: serve.ResilienceConfig{Hedge: true}}},
		{name: "par/cache/breaker+hedge", cfg: serve.Config{Workers: 4, Cache: cache64,
			Resilience: serve.ResilienceConfig{Breaker: true, Hedge: true, Retries: 2}}},
		{name: "par/cache/admission", cfg: serve.Config{Workers: 4,
			Cache: serve.CacheConfig{Size: 64, Admission: true}}},
	}
	ctx := context.Background()
	stale := staleIndexExecutor()
	silent := silentBreakerExecutor()

	for _, gc := range grid {
		cfg := gc.cfg
		if h.opts.Plant == PlantBadIndex && cfg.Index {
			cfg.Executor = stale
		}
		if h.opts.Plant == PlantBadBreaker && cfg.Resilience.Breaker {
			cfg.Executor = silent
		}
		srv := serve.New(med, data, cfg)
		for qi, q := range []*qtree.Node{c.Query, permuted} {
			if gc.fresh {
				srv = serve.New(med, data, cfg)
			}
			got, err := srv.Query(ctx, q)
			if err != nil {
				return &Violation{Oracle: "serve-equivalence", Variant: gc.name,
					Detail: fmt.Sprintf("query %d failed without faults: %v", qi, err)}
			}
			if g := renderRelation(got); g != wantS {
				return &Violation{Oracle: "serve-equivalence", Variant: gc.name,
					Detail: fmt.Sprintf("answer differs from sequential mediator baseline\nq = %s\ngot %d tuples, want %d", q, got.Len(), want.Len())}
			}
		}
		if !gc.fresh {
			st := srv.Stats()
			if st.CacheHits+st.CacheMisses+st.CacheShared < 2 {
				return &Violation{Oracle: "serve-equivalence", Variant: gc.name,
					Detail: fmt.Sprintf("cache accounting lost lookups: hits=%d misses=%d shared=%d for 2 queries",
						st.CacheHits, st.CacheMisses, st.CacheShared)}
			}
			if st.CacheHits == 0 {
				return &Violation{Oracle: "serve-equivalence", Variant: gc.name,
					Detail: "permuted-but-equivalent query missed the canonical translation cache"}
			}
		}
	}

	if h.opts.Faults {
		return h.checkServeFaults(c, med, data, wantS)
	}
	return nil
}

// staleIndexExecutor implements the badindex plant: a source executor that
// answers indexed selections from a stale snapshot — the relation and its
// access structure as they looked before the last tuple arrived — so
// indexed answers silently drop tuples the scan path keeps. The
// serve-equivalence oracle must catch the divergence against the
// sequential mediator baseline.
func staleIndexExecutor() serve.SourceExecutor {
	type snap struct {
		rel *engine.Relation
		acc *engine.Access
	}
	var mu sync.Mutex
	memo := map[*engine.Relation]snap{}
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		if acc == nil || rel.Len() == 0 {
			return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
		}
		mu.Lock()
		s, ok := memo[rel]
		if !ok {
			s.rel = engine.NewRelation(rel.Name, rel.Tuples[:rel.Len()-1]...)
			s.acc = engine.BuildAccess(s.rel)
			memo[rel] = s
		}
		mu.Unlock()
		return s.rel.SelectAccess(ctx, q, ev, s.acc)
	}
}

// silentBreakerExecutor implements the badbreaker plant: a defective
// breaker integration that, once a source has "tripped" (here: after its
// first execution), silently answers that source's selections with an empty
// relation instead of failing the request with the typed ErrBreakerOpen.
// That is exactly the degraded-answer-contract violation the resilience
// layer forbids — a tripped source silently omitted from a union answer —
// and the serve-equivalence oracle must catch it as an answer smaller than
// the sequential baseline.
func silentBreakerExecutor() serve.SourceExecutor {
	var mu sync.Mutex
	execs := map[string]int{}
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		mu.Lock()
		n := execs[source]
		execs[source] = n + 1
		mu.Unlock()
		if source == "sB" && n > 0 {
			return engine.NewRelation(source), nil
		}
		return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
	}
}

// faultPlan is the mix the fault-injected grid runs under: frequent typed
// transient errors, benign sub-timeout delays, and stalls long enough to trip
// the per-source timeout below.
var faultPlan = engine.FaultPlan{
	ErrProb:   0.25,
	StallProb: 0.15,
	Stall:     50 * time.Millisecond,
	DelayProb: 0.25,
	Delay:     400 * time.Microsecond,
}

// faultTimeout bounds each per-source execution under faults; it sits far
// below Stall and far above a real in-memory selection.
const faultTimeout = 5 * time.Millisecond

// checkServeFaults runs the serving stack under the injector and demands the
// transient-fault contract: every failed request carries a typed error
// (engine.ErrInjected or a context deadline), and within Options.ServeTries
// retries the answer converges to the fault-free baseline, byte-identically.
func (h *Harness) checkServeFaults(c *Case, med *mediator.Mediator, data map[string]*engine.Relation, wantS string) *Violation {
	type faultConfig struct {
		variant string
		make    func(inj *engine.Injector) serve.Config
		// openFor is the breaker's cool-down; the retry loop waits it out
		// after a fast-fail. Zero without a breaker.
		openFor time.Duration
	}
	var grid []faultConfig
	for _, workers := range []int{1, 4} {
		for _, index := range []bool{false, true} {
			workers, index := workers, index
			grid = append(grid, faultConfig{
				variant: fmt.Sprintf("faults/workers=%d/index=%v", workers, index),
				make: func(inj *engine.Injector) serve.Config {
					return serve.Config{
						Workers:       workers,
						Cache:         cache64,
						SourceTimeout: faultTimeout,
						Index:         index,
						Executor: func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
							if err := inj.Apply(ctx, source); err != nil {
								return nil, err
							}
							return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
						},
					}
				},
			})
		}
	}
	// The resilience combos under faults ({breaker} × {hedge}, plus retry):
	// failed requests must still carry only typed errors — now including
	// ErrBreakerOpen — and successes must still be byte-identical to the
	// fault-free baseline. The breaker cool-down is shortened so the retry
	// loop, which waits it out after each fast-fail, can observe recovery
	// rather than starving on fast-fails.
	shortOpen := resilience.BreakerConfig{OpenFor: 2 * time.Millisecond}
	for _, res := range []struct {
		tag string
		rc  serve.ResilienceConfig
	}{
		{"breaker", serve.ResilienceConfig{Breaker: true, BreakerConfig: shortOpen}},
		{"hedge", serve.ResilienceConfig{Hedge: true}},
		{"breaker+hedge+retry", serve.ResilienceConfig{
			Breaker: true, BreakerConfig: shortOpen, Hedge: true, Retries: 2}},
	} {
		res := res
		grid = append(grid, faultConfig{
			variant: "faults/" + res.tag,
			openFor: res.rc.BreakerConfig.OpenFor,
			make: func(inj *engine.Injector) serve.Config {
				return serve.Config{
					Workers:       4,
					Cache:         cache64,
					SourceTimeout: faultTimeout,
					Resilience:    res.rc,
					Executor: func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
						if err := inj.Apply(ctx, source); err != nil {
							return nil, err
						}
						return serve.DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
					},
				}
			},
		})
	}
	for _, fc := range grid {
		inj := engine.NewInjector(c.Seed, faultPlan)
		srv := serve.New(med, data, fc.make(inj))
		ok := false
		for try := 0; try < h.opts.ServeTries; try++ {
			got, err := srv.Query(context.Background(), c.Query)
			if err != nil {
				if !typedFault(err) {
					return &Violation{Oracle: "serve-equivalence", Variant: fc.variant,
						Detail: fmt.Sprintf("untyped error under fault injection: %v", err)}
				}
				if errors.Is(err, serve.ErrBreakerOpen) {
					// An immediate retry lands inside the cool-down and
					// fast-fails again; let the breaker half-open first.
					time.Sleep(fc.openFor)
				}
				continue
			}
			if g := renderRelation(got); g != wantS {
				return &Violation{Oracle: "serve-equivalence", Variant: fc.variant,
					Detail: fmt.Sprintf("successful answer under faults differs from fault-free baseline\ngot %d tuples", got.Len())}
			}
			ok = true
			break
		}
		if !ok {
			return &Violation{Oracle: "serve-equivalence", Variant: fc.variant,
				Detail: fmt.Sprintf("no successful answer in %d tries (injected: %d errors, %d stalls, %d delays)",
					h.opts.ServeTries, inj.Errors(), inj.Stalls(), inj.Delays())}
		}
	}
	return nil
}

// typedFault reports whether err is one of the contractually allowed fault
// shapes: the injector's typed transient error, a context deadline /
// cancellation surfaced by the per-source timeout, or the breaker's typed
// fast-fail — the degraded-answer contract says a tripped source must
// surface ErrBreakerOpen, never a silently smaller answer.
func typedFault(err error) bool {
	return errors.Is(err, engine.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, serve.ErrBreakerOpen)
}

// serveStack builds the mediation stack the serve oracle runs: two sources
// sharing the scenario's specification and evaluator (union-style
// integration of replicas), with the case dataset split between them.
func (c *Case) serveStack() (*mediator.Mediator, map[string]*engine.Relation) {
	s1 := &sources.Source{Name: "sA", Spec: c.S.Spec, Eval: c.S.Eval}
	s2 := &sources.Source{Name: "sB", Spec: c.S.Spec, Eval: c.S.Eval}
	med := mediator.New(s1, s2)
	med.Eval = c.S.Eval
	r1, r2 := engine.NewRelation("sA"), engine.NewRelation("sB")
	for i, t := range c.Data {
		if i%2 == 0 {
			r1.Tuples = append(r1.Tuples, t)
		} else {
			r2.Tuples = append(r2.Tuples, t)
		}
	}
	return med, map[string]*engine.Relation{"sA": r1, "sB": r2}
}
