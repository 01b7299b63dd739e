package rules

import (
	"fmt"
	"sync"

	"repro/internal/qtree"
)

// Spec is a mapping specification K for one target context: the rule set,
// the function registry resolving its conditions and actions, and the
// target's capability description. Rules are required to be sound and the
// specification complete (Definitions 3 and 4) — properties of the human
// author that the library's targets uphold and the test suite verifies
// empirically.
//
// Immutability contract: a Spec must not be modified after its first use.
// The compiled dispatch engine (Compiled), the translation plan
// (TranslationPlan), and core's cross-request MatchCache all key cached
// work to the Spec pointer on the assumption that the rule set is frozen;
// mutating Rules after any of them has observed the spec would
// silently serve stale matchings. Compiled snapshots the rule slice on
// first compilation and panics if a later call finds it changed, turning
// that silent corruption into an immediate, attributable failure. To vary a
// rule set, build a new Spec (see NewSpec, WithoutRelaxations).
type Spec struct {
	Name   string
	Target *Target
	Rules  []*Rule
	Reg    *Registry

	compileOnce sync.Once
	compiled    *CompiledSpec
	// compiledRules snapshots Rules at compile time; Compiled verifies the
	// live slice still matches it (the immutability guard above).
	compiledRules []*Rule

	planOnce sync.Once
	plan     *TranslationPlan
}

// Compiled returns the spec's compiled matching engine, built lazily on
// first use. The rule set must not be modified after the first call (see
// the Spec immutability contract); a detected mutation panics.
func (s *Spec) Compiled() *CompiledSpec {
	s.compileOnce.Do(func() {
		s.compiledRules = append([]*Rule(nil), s.Rules...)
		s.compiled = compile(s)
	})
	if len(s.Rules) != len(s.compiledRules) {
		panic("rules: spec " + s.Name + " mutated after compilation (rule count changed); specs are immutable after first use")
	}
	for i, r := range s.Rules {
		if r != s.compiledRules[i] {
			panic("rules: spec " + s.Name + " mutated after compilation (rule " + r.Name + " changed); specs are immutable after first use")
		}
	}
	return s.compiled
}

// TranslationPlan returns the spec's static translation plan — the
// precomputed cross-matching feature adjacency — built lazily on first use
// from the compiled engine. Like Compiled, it requires the spec to be
// immutable after first use.
func (s *Spec) TranslationPlan() *TranslationPlan {
	s.planOnce.Do(func() { s.plan = buildTranslationPlan(s.Compiled()) })
	return s.plan
}

// NewSpec assembles and validates a specification.
func NewSpec(name string, target *Target, reg *Registry, rs ...*Rule) (*Spec, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	s := &Spec{Name: name, Target: target, Rules: rs, Reg: reg}
	names := make(map[string]bool, len(rs))
	for _, r := range rs {
		if names[r.Name] {
			return nil, fmt.Errorf("rules: duplicate rule name %s in spec %s", r.Name, name)
		}
		names[r.Name] = true
		if err := r.Validate(reg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustSpec is NewSpec that panics on error; for fixtures.
func MustSpec(name string, target *Target, reg *Registry, rs ...*Rule) *Spec {
	s, err := NewSpec(name, target, reg, rs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Matchings computes M(Q̂, K): all matchings of any rule against the given
// constraints (Algorithm SCM, step 1). The result is deterministic: rules
// are evaluated in specification order and matchings deduplicated.
func (s *Spec) Matchings(cs []*qtree.Constraint) ([]*Matching, error) {
	var out []*Matching
	for _, r := range s.Rules {
		ms, err := matchRule(r, cs, s.Reg)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// MatchRule computes the matchings of a single rule against the given
// constraints. Iterating the spec's rules with MatchRule in order yields
// exactly the matchings of Matchings; the tracing layer uses this to
// attribute matchings to the rule that produced them.
func (s *Spec) MatchRule(r *Rule, cs []*qtree.Constraint) ([]*Matching, error) {
	return matchRule(r, cs, s.Reg)
}

// MatchingsOfSet is Matchings over a constraint set.
func (s *Spec) MatchingsOfSet(set *qtree.ConstraintSet) ([]*Matching, error) {
	return s.Matchings(set.Slice())
}

// SuppressSubmatchings removes every matching whose constraint set is a
// proper subset of another matching's set (Algorithm SCM, step 2): the
// larger matching yields a stricter mapping (Lemma 1), so the submatching is
// redundant. Matchings over the *same* set are all kept — distinct rules may
// each contribute to the mapping.
//
// Only matchings sharing a constraint can be in a subset relation, and any
// superset of m contains every key of m — so each matching is compared only
// against the candidates indexed under its least-frequent constraint key.
// Scanning the smallest bucket (rather than a fixed one) keeps the pass
// near-linear even when many matchings share one popular constraint, the
// skew the fixed-key variant degraded quadratically on.
func SuppressSubmatchings(ms []*Matching) []*Matching {
	byConstraint := make(map[string][]*Matching)
	for _, m := range ms {
		for _, k := range m.Set.Keys() {
			byConstraint[k] = append(byConstraint[k], m)
		}
	}
	out := ms[:0:0]
	for _, m := range ms {
		redundant := false
		keys := m.Set.Keys()
		if len(keys) > 0 {
			rarest := keys[0]
			for _, k := range keys[1:] {
				if len(byConstraint[k]) < len(byConstraint[rarest]) {
					rarest = k
				}
			}
			for _, n := range byConstraint[rarest] {
				if n != m && m.Set.ProperSubsetOf(n.Set) {
					redundant = true
					break
				}
			}
		}
		if !redundant {
			out = append(out, m)
		}
	}
	return out
}

// RuleByName returns the named rule, or nil.
func (s *Spec) RuleByName(name string) *Rule {
	for _, r := range s.Rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}
