// Package conformance is a randomized *semantic* conformance harness for
// the translation contract of Definition 1. Where the property tests in
// internal/workload compare translation outputs as Boolean formulas, this
// package executes them: every generated case builds a synthetic scenario
// (internal/workload), draws a random query and dataset, runs the original
// query and every algorithm variant's translation through internal/engine,
// and checks five executable oracles:
//
//   - subsumption: on every generated dataset, the translated answer set is
//     a superset of the true answer set (Definition 1, condition 2), for
//     every algorithm variant (DNF, TDQM, TDQM with full-DNF safety, TDQM
//     without partitioning, CNF baseline);
//   - filter-exactness: the post-filter answer σ_F(σ_S(Q)(D)) is
//     byte-identical to σ_Q(D) and byte-identical across all variants
//     (Eq. 3 executed, not just proved);
//   - minimality probing: per satisfiable DNF disjunct, every atom the SCM
//     translation emits must do real work — loosening it to TRUE must admit
//     an adversarially constructed false-positive tuple (no redundant
//     atoms, the property submatching suppression guarantees), and
//     tightening an inexact atom (starts/contains → equality) must drop a
//     witness tuple that satisfies the original query (the emission is as
//     tight as expressible, Definition 1 condition 3);
//   - compose equivalence: a second mapping hop is layered over the
//     scenario's target vocabulary, the chain is precomposed offline
//     (rules.Compose), and the composed one-hop translation is executed
//     against the sequential two-hop reference — raw answers must nest
//     σ_Q ⊆ σ_seq ⊆ σ_comp, and mediator-level filtered answers (composed
//     source vs ChainDebug sequential replay) must be byte-identical to
//     σ_Q(D);
//   - serve equivalence: a serving stack (internal/serve) over the same
//     scenario — cache on/off × parallel/sequential, and optionally under
//     injected source faults (engine.Injector: transient errors, benign
//     delays, timeout-tripping stalls) — yields answers byte-identical to
//     the sequential mediator baseline, or fails only with typed errors
//     (engine.ErrInjected / context.DeadlineExceeded), and transient
//     failures are retryable to the exact baseline answer.
//
// Every case derives deterministically from one int64 seed, rendered as a
// replayable seed string (see Case.SeedString). Failing cases are shrunk
// greedily — dropping disjuncts/conjuncts, hoisting subtrees, simplifying
// constants, thinning the dataset — to a minimal reproducer that still
// violates the same oracle. cmd/qcheck is the CLI front end; the tests in
// this package run a short deterministic slice under `go test ./...`.
package conformance

import (
	"fmt"
)

// Plant names an intentionally introduced defect, wired through the
// harness's own translation calls so the oracles can be shown to have
// teeth (and the shrinker shown to minimize real failures).
type Plant string

const (
	// PlantNone runs the real algorithms.
	PlantNone Plant = ""
	// PlantNoSuppression replaces Algorithm SCM with the ablation that
	// skips submatching suppression (core.SCMNoSuppression): translations
	// carry redundant weaker atoms, which the minimality oracle catches.
	PlantNoSuppression Plant = "nosuppression"
	// PlantDropFilter discards the filter query F (uses TRUE instead):
	// inexact translations leak false positives, which the filter-exactness
	// oracle catches.
	PlantDropFilter Plant = "dropfilter"
	// PlantBadCompose replaces offline spec composition with the unsound
	// variant that tightens prefix emissions to equality
	// (rules.ComposeTightened): the composed translation drops answers the
	// sequential two-hop reference keeps, which the compose oracle catches.
	PlantBadCompose Plant = "badcompose"
	// PlantBadBreaker answers a source's selections on the breaker-enabled
	// materialized grid points with a silently empty relation after its
	// first execution, modeling a breaker that omits a tripped source
	// instead of surfacing the typed ErrBreakerOpen fast-fail — the
	// degraded-answer-contract violation the serve-equivalence oracle
	// catches as an answer diverging from the sequential baseline.
	PlantBadBreaker Plant = "badbreaker"
	// PlantBadIndex answers the indexed materialized grid points from a
	// stale access snapshot (built before each source's last tuple
	// arrived), so indexed answers silently drop tuples the scan path
	// keeps — which the serve-equivalence oracle catches.
	PlantBadIndex Plant = "badindex"
)

// Options configures a Harness.
type Options struct {
	// Faults enables the fault-injected serve equivalence oracle.
	Faults bool
	// Plant introduces a named defect (for self-tests; see Plant).
	Plant Plant
	// MaxDisjuncts bounds the DNF disjuncts probed per case by the
	// minimality oracle (8 if <= 0).
	MaxDisjuncts int
	// ServeTries bounds the retry loop of the fault-injected serve oracle
	// (60 if <= 0).
	ServeTries int
	// Oracle, when non-empty, restricts Check to the named oracle
	// ("subsumption", "filter-exactness", "minimality", "compose",
	// "serve-equivalence"). Empty runs all of them in the fixed order.
	Oracle string
}

// Harness checks cases against the oracles.
type Harness struct {
	opts Options
}

// New returns a harness with the given options.
func New(opts Options) *Harness {
	if opts.MaxDisjuncts <= 0 {
		opts.MaxDisjuncts = 8
	}
	if opts.ServeTries <= 0 {
		opts.ServeTries = 60
	}
	return &Harness{opts: opts}
}

// Violation reports one oracle failure.
type Violation struct {
	// Oracle names the failed oracle: "subsumption", "filter-exactness",
	// "minimality", "serve-equivalence", or "harness" for infrastructure
	// failures (translation or evaluation errors).
	Oracle string
	// Variant names the algorithm variant involved, when applicable.
	Variant string
	// Detail is a human-readable account of the failure.
	Detail string
}

func (v *Violation) String() string {
	if v.Variant != "" {
		return fmt.Sprintf("[%s/%s] %s", v.Oracle, v.Variant, v.Detail)
	}
	return fmt.Sprintf("[%s] %s", v.Oracle, v.Detail)
}

// Check runs every oracle against the case and returns the first violation,
// or nil if the case conforms. The order is fixed — subsumption,
// filter-exactness, minimality, compose, serve equivalence — so shrinking
// can match reductions against a stable oracle name. Options.Oracle narrows
// the run to one oracle.
func (h *Harness) Check(c *Case) *Violation {
	only := h.opts.Oracle
	run := func(name string) bool { return only == "" || only == name }
	if run("subsumption") {
		if v := h.checkSubsumption(c); v != nil {
			return v
		}
	}
	if run("filter-exactness") {
		if v := h.checkFilterExactness(c); v != nil {
			return v
		}
	}
	if run("minimality") {
		if v := h.checkMinimality(c); v != nil {
			return v
		}
	}
	if run("compose") {
		if v := h.checkCompose(c); v != nil {
			return v
		}
	}
	if run("serve-equivalence") {
		return h.checkServe(c)
	}
	return nil
}

// Failure pairs a failing case with its violation and, when shrinking ran,
// the minimal reproducer.
type Failure struct {
	Case      *Case
	Violation *Violation
	// Shrunk is the minimized case (nil when shrinking was disabled) and
	// ShrunkViolation the violation it still triggers.
	Shrunk          *Case
	ShrunkViolation *Violation
}

// Reproducer renders the failure for humans: the replay seed, the violated
// oracle and the variant it failed under (when the oracle names one), and
// the (shrunk, if available) query and dataset.
func (f *Failure) Reproducer() string {
	c, v := f.Case, f.Violation
	shrunk := ""
	if f.Shrunk != nil {
		c, v = f.Shrunk, f.ShrunkViolation
		shrunk = " (shrunk)"
	}
	variant := ""
	if v.Variant != "" {
		variant = "\nvariant:     " + v.Variant
	}
	return fmt.Sprintf("replay seed: %s\noracle:      %s%s\nquery%s: %s\nconstraints: %d\ndataset:     %d tuples\ndetail:      %s",
		f.Case.SeedString(), v.Oracle, variant, shrunk, c.Query, len(c.Query.Constraints()), len(c.Data), v.Detail)
}

// Report summarizes a Run.
type Report struct {
	Cases    int
	Failures []*Failure
}

// Run checks n cases with consecutive seeds starting at startSeed,
// shrinking each failure when shrink is set, and returns the report.
// MaxFailures of 1 is applied: Run stops at the first failure, which is the
// mode both the CLI and the tests use (subsequent seeds remain reachable by
// resuming from seed+index).
func (h *Harness) Run(startSeed int64, n int, shrink bool) *Report {
	rep := &Report{}
	for i := 0; i < n; i++ {
		c := NewCase(startSeed + int64(i))
		rep.Cases++
		v := h.Check(c)
		if v == nil {
			continue
		}
		f := &Failure{Case: c, Violation: v}
		if shrink {
			f.Shrunk, f.ShrunkViolation = h.Shrink(c, v)
		}
		rep.Failures = append(rep.Failures, f)
		break
	}
	return rep
}
