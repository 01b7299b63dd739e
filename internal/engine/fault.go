package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the typed root of every transient fault an Injector
// produces. Callers that must distinguish injected chaos from real
// evaluation failures test errors.Is(err, ErrInjected); the conformance
// harness uses it to assert that a fault-injected serving stack fails only
// with *typed* errors and otherwise returns answers identical to the
// fault-free baseline.
var ErrInjected = errors.New("engine: injected transient source fault")

// FaultPlan configures the fault mix an Injector draws from on every source
// execution. Probabilities are independent and evaluated in order: error,
// stall, delay; at most one fault fires per execution. The zero plan injects
// nothing.
type FaultPlan struct {
	// ErrProb is the probability of failing the execution immediately with
	// an error wrapping ErrInjected.
	ErrProb float64
	// StallProb is the probability of sleeping for Stall before proceeding —
	// sized above the server's per-source timeout, this models a hung source
	// and surfaces as a context deadline error.
	StallProb float64
	// Stall is the stall duration.
	Stall time.Duration
	// DelayProb is the probability of a benign delay, uniform in
	// [Delay/2, Delay] — long enough to reorder goroutine completion, short
	// enough to stay under any timeout.
	DelayProb float64
	// Delay is the upper bound of the benign delay.
	Delay time.Duration
}

// Injector draws deterministic faults for named sources. Each source name
// gets its own seeded random stream, so the k-th execution against a given
// source sees the same fault decision regardless of how executions against
// other sources interleave — which is what makes fault-injected runs
// replayable from a single case seed.
//
// Beyond the probabilistic plan, two deterministic modes exist for tests
// that need exact fault schedules rather than distributions: SetLatency pins
// a fixed extra delay on every execution of a source (a reproducibly slow
// source, the scenario hedging exists for), and SetErrorBurst fails the
// source's next n executions outright (the trip-then-recover schedule
// breaker tests need).
//
// Injector is safe for concurrent use.
type Injector struct {
	plan FaultPlan
	seed int64

	mu      sync.Mutex
	streams map[string]*rand.Rand
	latency map[string]time.Duration
	burst   map[string]int

	errs, stalls, delays, lats atomic.Uint64
}

// NewInjector returns an injector drawing from plan, with per-source streams
// derived from seed.
func NewInjector(seed int64, plan FaultPlan) *Injector {
	return &Injector{
		plan:    plan,
		seed:    seed,
		streams: make(map[string]*rand.Rand),
		latency: make(map[string]time.Duration),
		burst:   make(map[string]int),
	}
}

// SetLatency pins a deterministic extra latency on every execution of the
// named source. A non-positive d clears the pin. Pinned latency composes
// with the probabilistic plan: the sleep happens first, then the plan draw
// proceeds as usual.
func (in *Injector) SetLatency(source string, d time.Duration) {
	in.mu.Lock()
	if d <= 0 {
		delete(in.latency, source)
	} else {
		in.latency[source] = d
	}
	in.mu.Unlock()
}

// SetErrorBurst makes the named source's next n executions fail with
// ErrInjected before any plan draw — a deterministic failure run that trips
// a circuit breaker at an exact execution count and then lets the source
// recover. A non-positive n clears the burst.
func (in *Injector) SetErrorBurst(source string, n int) {
	in.mu.Lock()
	if n <= 0 {
		delete(in.burst, source)
	} else {
		in.burst[source] = n
	}
	in.mu.Unlock()
}

// deterministic resolves the pinned fault decision for one execution of
// source: the remaining burst error (consuming it) and the pinned latency.
func (in *Injector) deterministic(source string) (failNow bool, extra time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n, ok := in.burst[source]; ok {
		if n <= 1 {
			delete(in.burst, source)
		} else {
			in.burst[source] = n - 1
		}
		failNow = true
	}
	return failNow, in.latency[source]
}

// draw advances the named source's stream by one decision.
func (in *Injector) draw(source string) (kind int, frac float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	rng, ok := in.streams[source]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(source))
		rng = rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))
		in.streams[source] = rng
	}
	p := rng.Float64()
	switch {
	case p < in.plan.ErrProb:
		return 1, 0
	case p < in.plan.ErrProb+in.plan.StallProb:
		return 2, 0
	case p < in.plan.ErrProb+in.plan.StallProb+in.plan.DelayProb:
		return 3, rng.Float64()
	default:
		return 0, 0
	}
}

// Apply draws the next fault for the named source and enacts it: it returns
// an error wrapping ErrInjected, sleeps (respecting ctx), or does nothing.
// A stall or delay interrupted by ctx returns ctx.Err(). Deterministic pins
// run first: a pending error burst fails immediately; a pinned latency
// sleeps before the probabilistic draw.
func (in *Injector) Apply(ctx context.Context, source string) error {
	if failNow, extra := in.deterministic(source); failNow {
		in.errs.Add(1)
		return fmt.Errorf("source %s: %w", source, ErrInjected)
	} else if extra > 0 {
		in.lats.Add(1)
		if err := sleepCtx(ctx, extra); err != nil {
			return err
		}
	}
	kind, frac := in.draw(source)
	switch kind {
	case 1:
		in.errs.Add(1)
		return fmt.Errorf("source %s: %w", source, ErrInjected)
	case 2:
		in.stalls.Add(1)
		return sleepCtx(ctx, in.plan.Stall)
	case 3:
		in.delays.Add(1)
		d := in.plan.Delay/2 + time.Duration(frac*float64(in.plan.Delay/2))
		return sleepCtx(ctx, d)
	default:
		return nil
	}
}

// Errors returns the number of transient errors injected so far.
func (in *Injector) Errors() uint64 { return in.errs.Load() }

// Stalls returns the number of stalls injected so far.
func (in *Injector) Stalls() uint64 { return in.stalls.Load() }

// Delays returns the number of benign delays injected so far.
func (in *Injector) Delays() uint64 { return in.delays.Load() }

// Latencies returns the number of pinned-latency sleeps injected so far.
func (in *Injector) Latencies() uint64 { return in.lats.Load() }

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
