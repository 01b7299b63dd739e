package core

import (
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// This file threads the obs span tracer through the algorithms. All hooks
// are nil-guarded: with no tracer attached the per-call cost is one pointer
// check. Tracing is purely observational — traced and untraced runs produce
// byte-identical translations and identical Stats (the dependent-constraint
// precomputation below calls the spec directly, bypassing the counted
// matchings path).

// traceEnter tracks translation depth and, at the top level, computes the
// dependent-constraint support of the whole query: the keys of every
// constraint participating in a multi-constraint potential matching. Spans
// report |keys(subquery) ∩ support| as essentialDNFSize; the set shrinks
// monotonically down the tree, which is the child-e <= parent-e invariant
// obs.Verify checks. Call only when t.tracer != nil, paired with traceExit.
func (t *Translator) traceEnter(cs []*qtree.Constraint) {
	if t.traceDepth == 0 {
		t.depSupport = t.dependentKeys(cs)
	}
	t.traceDepth++
}

// traceExit unwinds traceEnter, clearing the support at the top level.
func (t *Translator) traceExit() {
	t.traceDepth--
	if t.traceDepth == 0 {
		t.depSupport = nil
	}
}

// dependentKeys computes the support set. Matching errors are deliberately
// swallowed: the traced translation immediately re-runs the same matching
// and reports the error through the normal path.
func (t *Translator) dependentKeys(cs []*qtree.Constraint) map[string]bool {
	ms, err := t.Spec.Matchings(cs)
	if err != nil {
		return map[string]bool{}
	}
	support := make(map[string]bool)
	for _, m := range ms {
		if m.Set.Len() >= 2 {
			for _, k := range m.Set.Keys() {
				support[k] = true
			}
		}
	}
	return support
}

// essentialSize is e for a set of constraints under the current support.
func (t *Translator) essentialSize(cs []*qtree.Constraint) int64 {
	seen := make(map[string]bool, len(cs))
	var e int64
	for _, c := range cs {
		k := c.Key()
		if t.depSupport[k] && !seen[k] {
			seen[k] = true
			e++
		}
	}
	return e
}

// tracedMatchings mirrors matchings (same Stats accounting, same matching
// order) while emitting one match span per rule that produced candidates.
// It returns the matchings plus the per-rule spans so the SCM caller can
// back-fill kept/suppressed counts after suppression.
//
// It iterates the same candidate rules the compiled engine dispatches to —
// a span is only ever emitted for a rule with matchings and an index-skipped
// rule has none, so traces are byte-identical to the pre-index engine while
// RuleAttempts agrees with the untraced path. The memo is bypass-or-record
// here: never consulted (every traced run must emit its spans) but always
// populated, so memo-enabled translations trace identically to memo-free
// ones.
func (t *Translator) tracedMatchings(cs []*qtree.Constraint) ([]*rules.Matching, map[string]*obs.Span, error) {
	t.Stats.MatchRuns++
	var all []*rules.Matching
	spans := make(map[string]*obs.Span)
	probed := 0
	for _, r := range t.candidateRules(cs) {
		probed++
		ms, err := t.Spec.MatchRule(r, cs)
		if err != nil {
			return nil, nil, err
		}
		if len(ms) == 0 {
			continue
		}
		sp := t.tracer.Start(obs.KindMatch, r.Name)
		sp.Set(obs.CtrCandidates, int64(len(ms)))
		t.tracer.End()
		spans[r.Name] = sp
		all = append(all, ms...)
	}
	t.Stats.MatchingsFound += len(all)
	t.Stats.RuleAttempts += probed
	if t.memo != nil {
		t.memo.put(memoKey(cs), all, probed)
		t.memoStats.Misses++
	}
	return all, spans, nil
}
