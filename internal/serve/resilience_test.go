package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/resilience"
)

// injectedExecutor wraps DefaultExecutor with an engine.Injector, the same
// seam the conformance harness uses.
func injectedExecutor(inj *engine.Injector) SourceExecutor {
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		if err := inj.Apply(ctx, source); err != nil {
			return nil, err
		}
		return DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
	}
}

// TestBreakerTripAndRecovery drives one source through a deterministic error
// burst and asserts the full breaker lifecycle at the serving surface:
// failures accumulate, the breaker trips, requests fail fast with the typed
// ErrBreakerOpen (degraded-answer contract), and after the cool-down a
// half-open probe closes the breaker and answers are correct again.
func TestBreakerTripAndRecovery(t *testing.T) {
	inj := engine.NewInjector(1, engine.FaultPlan{})
	bc := resilience.BreakerConfig{
		Window: 8, FailureRatio: 0.5, MinSamples: 4,
		OpenFor: 150 * time.Millisecond, HalfOpenProbes: 1,
	}
	srv, med, data := bookstoreServer(Config{
		Cache:      CacheConfig{Size: 8},
		Executor:   injectedExecutor(inj),
		Resilience: ResilienceConfig{Breaker: true, BreakerConfig: bc},
	})
	ctx := context.Background()
	q := qparse.MustParse(`[publisher = "aw"]`)
	want, _, err := med.ExecuteUnion(q, data)
	if err != nil {
		t.Fatal(err)
	}

	// Burst: the next 4 amazon executions fail, reaching MinSamples at 100%
	// failure rate — the 4th Record must trip the breaker.
	inj.SetErrorBurst("amazon", 4)
	for i := 0; i < 4; i++ {
		if _, err := srv.Query(ctx, q); !errors.Is(err, engine.ErrInjected) {
			t.Fatalf("query %d: err = %v, want ErrInjected", i, err)
		}
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if got := st.Sources["amazon"].BreakerState; got != "open" {
		t.Fatalf("amazon breaker state = %q, want open", got)
	}
	if got := st.Sources["clbooks"].BreakerState; got != "closed" {
		t.Fatalf("clbooks breaker state = %q, want closed (cross-source isolation)", got)
	}

	// Open: the request must fail fast with the typed error, never return a
	// silently amazon-less answer.
	_, err = srv.Query(ctx, q)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-state err = %v, want ErrBreakerOpen", err)
	}
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatal("serve.ErrBreakerOpen must alias resilience.ErrBreakerOpen")
	}

	// Recovery: source healthy again; after the cool-down the first request
	// is the half-open probe, succeeds, and closes the breaker.
	time.Sleep(bc.OpenFor + 50*time.Millisecond)
	got, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatalf("post-cooldown query: %v", err)
	}
	if render(got) != render(want) {
		t.Fatal("post-recovery answer differs from baseline")
	}
	if got := srv.Stats().Sources["amazon"].BreakerState; got != "closed" {
		t.Fatalf("post-recovery breaker state = %q, want closed", got)
	}
}

// TestRetryRecoversTransientFault asserts bounded retry absorbs a typed
// transient burst shorter than the attempt budget — and surfaces the typed
// error, not an untyped one, when the burst outlasts it.
func TestRetryRecoversTransientFault(t *testing.T) {
	inj := engine.NewInjector(1, engine.FaultPlan{})
	srv, med, data := bookstoreServer(Config{
		Cache:    CacheConfig{Size: 8},
		Executor: injectedExecutor(inj),
		Resilience: ResilienceConfig{
			Retries:     3,
			RetryConfig: resilience.RetryConfig{BaseDelay: time.Microsecond, MaxDelay: time.Millisecond},
		},
	})
	ctx := context.Background()
	q := qparse.MustParse(`[publisher = "aw"]`)
	want, _, err := med.ExecuteUnion(q, data)
	if err != nil {
		t.Fatal(err)
	}

	// Two failures fit inside three attempts: the request succeeds.
	inj.SetErrorBurst("amazon", 2)
	got, err := srv.Query(ctx, q)
	if err != nil {
		t.Fatalf("query under 2-burst with 3 attempts: %v", err)
	}
	if render(got) != render(want) {
		t.Fatal("retried answer differs from baseline")
	}
	if st := srv.Stats(); st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}

	// Three failures exhaust the budget: typed failure, retries counted.
	inj.SetErrorBurst("amazon", 3)
	if _, err := srv.Query(ctx, q); !errors.Is(err, engine.ErrInjected) {
		t.Fatalf("exhausted-budget err = %v, want ErrInjected", err)
	}
	if st := srv.Stats(); st.Retries != 4 {
		t.Fatalf("Retries = %d, want 4", st.Retries)
	}
}

// TestHedgeWinsOnSlowSource pins a one-shot tail latency on a source and
// asserts the hedge launches after the delay, its fast duplicate wins, and
// the request completes far below the straggler's latency with the correct
// answer — the p99-cutting behavior hedging exists for.
func TestHedgeWinsOnSlowSource(t *testing.T) {
	const stall = 300 * time.Millisecond
	var slow atomic.Bool
	exec := func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		if source == "amazon" && slow.CompareAndSwap(true, false) {
			select {
			case <-time.After(stall):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return DefaultExecutor(ctx, source, rel, q, ev, ix, acc)
	}
	srv, med, data := bookstoreServer(Config{
		Cache:    CacheConfig{Size: 8},
		Executor: exec,
		Resilience: ResilienceConfig{
			Hedge:       true,
			HedgeConfig: resilience.HedgeConfig{MinDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
		},
	})
	ctx := context.Background()
	q := qparse.MustParse(`[publisher = "aw"]`)
	want, _, err := med.ExecuteUnion(q, data)
	if err != nil {
		t.Fatal(err)
	}

	slow.Store(true) // the next amazon execution (the primary) stalls
	start := time.Now()
	got, err := srv.Query(ctx, q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged query: %v", err)
	}
	if render(got) != render(want) {
		t.Fatal("hedged answer differs from baseline")
	}
	if elapsed >= stall {
		t.Errorf("request took %v, want well under the %v straggler (hedge did not cut the tail)", elapsed, stall)
	}
	st := srv.Stats()
	if st.HedgesLaunched == 0 {
		t.Error("HedgesLaunched = 0, want > 0")
	}
	if st.HedgesWon == 0 {
		t.Error("HedgesWon = 0, want > 0")
	}
	// The cancelled straggler must not pollute health accounting: it is
	// neither a timeout nor a breaker-relevant failure.
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (hedge loser counted as timeout)", st.Timeouts)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

// TestHedgeLoses asserts the accounting on the common path: the primary
// finishes before the (floored) hedge delay, so no hedge launches at all.
func TestHedgeLoses(t *testing.T) {
	srv, _, _ := bookstoreServer(Config{
		Cache: CacheConfig{Size: 8},
		Resilience: ResilienceConfig{
			Hedge:       true,
			HedgeConfig: resilience.HedgeConfig{MinDelay: time.Second},
		},
	})
	if _, err := srv.Query(context.Background(), qparse.MustParse(`[publisher = "aw"]`)); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.HedgesLaunched != 0 || st.HedgesWon != 0 {
		t.Errorf("launched/won = %d/%d, want 0/0 for a fast primary", st.HedgesLaunched, st.HedgesWon)
	}
}

// TestAdmissionProtectsHotSet floods an admission-guarded translation cache
// with one-off scan queries and asserts the hot working set stays resident:
// the TinyLFU sketch rejects cold inserts whose estimated frequency cannot
// beat the eviction victim's, and a scan key a sketch collision does admit
// waits in probation instead of cascading through the hot set. The bounds
// must hold for every sketch seed, so the test sweeps a fixed range.
func TestAdmissionProtectsHotSet(t *testing.T) {
	var computed atomic.Int32
	fn := func(*qtree.Node) (*mediator.Translation, error) {
		computed.Add(1)
		return &mediator.Translation{}, nil
	}
	hot := make([]*qtree.Node, 16)
	for i := range hot {
		hot[i] = qparse.MustParse(fmt.Sprintf(`[publisher = "hot%d"]`, i))
	}
	// A scan: 48 distinct one-off queries, each seen exactly once.
	scan := make([]*qtree.Node, 48)
	for i := range scan {
		scan[i] = qparse.MustParse(fmt.Sprintf(`[publisher = "scan%d"]`, i))
	}
	translate := func(ct *CachingTranslator, qs []*qtree.Node) {
		for _, q := range qs {
			if _, err := ct.Translate(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	for seed := uint64(1); seed <= 1000; seed++ {
		// Sized to the sketch's design point (slots = 8× capacity, aging
		// every 10× capacity touches): 6 warm rounds plus the scan stay
		// inside one aging period, so hot estimates sit well above any scan
		// key's.
		ct := newCachingTranslator(fn, 16, true, seed)
		for round := 0; round < 6; round++ {
			translate(ct, hot)
		}
		translate(ct, scan)
		// Sketch collisions allow a few false admissions; the overwhelming
		// majority of scan inserts must be refused.
		if rej := ct.AdmissionRejected(); rej < 40 {
			t.Errorf("seed %d: AdmissionRejected = %d, want >= 40 of 48 scan inserts refused", seed, rej)
		}
		if n := ct.Len(); n != 16 {
			t.Errorf("seed %d: cache holds %d entries, want 16", seed, n)
		}
		// The hot working set must survive the scan essentially intact.
		before := computed.Load()
		translate(ct, hot)
		if d := computed.Load() - before; d > 4 {
			t.Errorf("seed %d: %d of 16 hot keys recomputed after the scan, want <= 4 (working set washed out)", seed, d)
		}
	}
}

// TestAdmissionCleanAnswers asserts admission is invisible in answers: a
// server with admission on returns byte-identical results to one without,
// across the mixed workload, twice (cold then warm).
func TestAdmissionCleanAnswers(t *testing.T) {
	plain, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 2}})
	guarded, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 2, Admission: true}})
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, s := range mixedWorkload {
			q := qparse.MustParse(s)
			a, err := plain.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := guarded.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if render(a) != render(b) {
				t.Fatalf("admission changed the answer for %q", s)
			}
		}
	}
}
