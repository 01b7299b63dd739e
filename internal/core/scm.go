package core

import (
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// SCMResult is the output of Algorithm SCM: the translated query, the
// matchings retained after submatching suppression, the constraints no
// retained matching covers (their mapping is True), and the residue — the
// part of the input the translation realizes only inexactly, which the
// mediator folds into the filter query F (Section 2, Eq. 3).
type SCMResult struct {
	Query     *qtree.Node
	Matchings []*rules.Matching
	Unmatched []*qtree.Constraint
	Residue   *qtree.Node
}

// SCM is Algorithm SCM (Figure 4): it maps the simple conjunction of the
// given constraints to its minimal subsuming mapping with respect to the
// translator's specification.
//
// Steps: (1) find all matchings M(Q̂, K); (2) suppress submatchings —
// a matching that is a proper subset of another is redundant by Lemma 1;
// (3) conjoin the emissions of the remaining matchings. Constraints covered
// by no matching map to True.
func (t *Translator) SCM(cs []*qtree.Constraint) (*SCMResult, error) {
	t.Stats.SCMCalls++
	t.metrics.SCMCall(t.Spec.Name)
	var (
		sp         *obs.Span
		matchSpans map[string]*obs.Span
		all        []*rules.Matching
		err        error
	)
	if t.tracer != nil {
		t.traceEnter(cs)
		defer t.traceExit()
		sp = t.tracer.Start(obs.KindSCM, qtree.NewConstraintSet(cs...).Conjunction().String())
		defer t.tracer.End()
		sp.Set(obs.CtrEssentialDNFSize, t.essentialSize(cs))
		all, matchSpans, err = t.tracedMatchings(cs)
	} else {
		all, err = t.matchings(cs)
	}
	if err != nil {
		return nil, err
	}
	ms := rules.SuppressSubmatchings(all)
	t.traceSCM(cs, all, ms)
	if sp != nil || t.metrics != nil {
		t.accountSuppression(sp, matchSpans, all, ms)
	}

	res := &SCMResult{Matchings: ms}
	kids := make([]*qtree.Node, 0, len(ms))
	covered := qtree.NewConstraintSet()
	exact := qtree.NewConstraintSet()
	for _, m := range ms {
		kids = append(kids, m.Emission)
		covered.AddAll(m.Set)
		if m.Rule.Exact {
			exact.AddAll(m.Set)
		}
	}
	res.Query = qtree.And(kids...).Normalize()

	var residue []*qtree.Node
	for _, c := range cs {
		if !covered.Has(c) {
			res.Unmatched = append(res.Unmatched, c)
		}
		if !exact.Has(c) {
			residue = append(residue, qtree.Leaf(c))
		}
	}
	res.Residue = qtree.And(residue...).Normalize()
	if !res.Residue.IsTrue() {
		t.residueClean = false
	}
	if sp != nil {
		sp.Set(obs.CtrEmittedAtoms, int64(len(res.Query.Constraints())))
		sp.Set(obs.CtrUnmatched, int64(len(res.Unmatched)))
	}
	return res, nil
}

// accountSuppression back-fills the per-rule kept/suppressed split into the
// SCM span, its match spans, and the cumulative metrics.
func (t *Translator) accountSuppression(sp *obs.Span, matchSpans map[string]*obs.Span, all, ms []*rules.Matching) {
	kept := make(map[*rules.Matching]bool, len(ms))
	for _, m := range ms {
		kept[m] = true
	}
	if sp != nil {
		sp.Set(obs.CtrCandidates, int64(len(all)))
		sp.Set(obs.CtrKept, int64(len(ms)))
		sp.Set(obs.CtrSuppressed, int64(len(all)-len(ms)))
	}
	for _, m := range all {
		msp := matchSpans[m.Rule.Name] // nil when untraced; Add is nil-safe
		if kept[m] {
			msp.Add(obs.CtrKept, 1)
			t.metrics.RuleFired(t.Spec.Name, m.Rule.Name)
		} else {
			msp.Add(obs.CtrSuppressed, 1)
			t.metrics.RuleSuppressed(t.Spec.Name, m.Rule.Name)
		}
	}
}

// SCMQuery runs Algorithm SCM on a simple-conjunction query node.
func (t *Translator) SCMQuery(q *qtree.Node) (*SCMResult, error) {
	return t.SCM(q.Normalize().SimpleConjuncts())
}
