package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen is the typed fast-fail a tripped circuit breaker returns.
// It is the load-bearing half of the degraded-answer contract: a source in
// the open state yields this error — which callers detect with errors.Is —
// never a silently empty (and therefore wrong) partial answer.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// BreakerState is a circuit breaker's position in its state machine.
type BreakerState int32

const (
	// BreakerClosed passes every request through, recording outcomes in
	// the sliding window.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails every request fast with ErrBreakerOpen until
	// OpenFor has elapsed.
	BreakerOpen
	// BreakerHalfOpen admits up to HalfOpenProbes concurrent probe
	// requests; a probe success closes the breaker, a probe failure
	// re-opens it.
	BreakerHalfOpen
)

// String returns the conventional lower-case state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig sizes a Breaker. The zero value selects working defaults.
type BreakerConfig struct {
	// Window is the sliding outcome window in executions (default 32).
	// Error rate is computed over the most recent Window outcomes.
	Window int
	// FailureRatio is the windowed error rate at or above which the
	// breaker trips (default 0.5).
	FailureRatio float64
	// MinSamples is the minimum number of windowed outcomes before the
	// ratio is meaningful; the breaker never trips on fewer (default 8).
	MinSamples int
	// OpenFor is how long a tripped breaker fails fast before letting
	// half-open probes through (default DefaultOpenFor).
	OpenFor time.Duration
	// HalfOpenProbes bounds the concurrent probe requests the half-open
	// state admits (default 1).
	HalfOpenProbes int
}

// DefaultOpenFor is a tripped breaker's cool-down when BreakerConfig leaves
// OpenFor unset.
const DefaultOpenFor = time.Second

// withDefaults fills unset fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.FailureRatio <= 0 {
		c.FailureRatio = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.OpenFor <= 0 {
		c.OpenFor = DefaultOpenFor
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	return c
}

// Breaker is a per-source circuit breaker: closed → open on a windowed
// error-rate trip, open → half-open after a cool-down, half-open → closed
// on a probe success (or back to open on a probe failure). It is safe for
// concurrent use; the common closed-state path is one short critical
// section.
//
// Protocol: call Allow before an execution — a nil result admits it, an
// ErrBreakerOpen result is the typed fast-fail — and pair every admitted
// execution with exactly one Record of its outcome.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for deterministic tests

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring buffer of outcomes, true = failure
	size     int    // occupied slots
	idx      int    // next write position
	failures int    // failures currently in the window
	openedAt time.Time
	probes   int // in-flight half-open probes

	trips atomic.Uint64
}

// NewBreaker returns a closed breaker configured by cfg (zero fields take
// defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:    cfg,
		now:    time.Now,
		window: make([]bool, cfg.Window),
	}
}

// Allow reports whether a request may execute now: nil admits it (pair with
// Record), ErrBreakerOpen refuses it. In the open state the cool-down is
// checked lazily, so the transition to half-open happens on the first Allow
// after OpenFor elapses.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probes = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.probes >= b.cfg.HalfOpenProbes {
			return ErrBreakerOpen
		}
		b.probes++
		return nil
	}
}

// Record reports one admitted execution's outcome. In the closed state it
// advances the sliding window and trips the breaker when the windowed error
// rate reaches FailureRatio (with at least MinSamples outcomes); in the
// half-open state a success closes the breaker and a failure re-opens it.
// Outcomes that complete after a trip (admitted while closed, finished
// while open) are dropped — the window restarts clean on recovery.
func (b *Breaker) Record(failure bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if b.size == len(b.window) {
			if b.window[b.idx] {
				b.failures--
			}
		} else {
			b.size++
		}
		b.window[b.idx] = failure
		if failure {
			b.failures++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.size >= b.cfg.MinSamples &&
			float64(b.failures) >= b.cfg.FailureRatio*float64(b.size) {
			b.trip()
		}
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if failure {
			b.trip()
			return
		}
		b.state = BreakerClosed
		b.reset()
	case BreakerOpen:
		// Straggler from before the trip; the fresh window ignores it.
	}
}

// trip moves to the open state and restarts the cool-down. Callers hold mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.trips.Add(1)
	b.reset()
}

// reset clears the sliding window. Callers hold mu.
func (b *Breaker) reset() {
	for i := range b.window {
		b.window[i] = false
	}
	b.size, b.idx, b.failures, b.probes = 0, 0, 0, 0
}

// State returns the breaker's current state, advancing open → half-open
// when the cool-down has elapsed (so observers see the same state a caller
// of Allow would).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns the number of closed/half-open → open transitions.
func (b *Breaker) Trips() uint64 { return b.trips.Load() }
