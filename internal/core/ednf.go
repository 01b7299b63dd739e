package core

import (
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// DNFExpr is a disjunction of simple conjunctions, each represented as a
// constraint set. An empty set is the ε placeholder ("don't care") of
// Procedure EDNF: it marks a disjunct whose constraints were nullified but
// whose existence still matters when forming product terms.
type DNFExpr []*qtree.ConstraintSet

// Epsilon is the DNF expression consisting of a single ε disjunct.
func Epsilon() DNFExpr { return DNFExpr{qtree.NewConstraintSet()} }

// String renders the expression for diagnostics, using ε for empty sets.
func (e DNFExpr) String() string {
	s := ""
	for i, d := range e {
		if i > 0 {
			s += " v "
		}
		if d.IsEmpty() {
			s += "eps"
		} else {
			s += d.String()
		}
	}
	return s
}

// PotentialMatchings computes M_p = M(C(Q), K): the matchings of the rules
// against the *set* of all constraints of q, ignoring query structure
// (Section 7.1.3). The result is deduplicated by constraint set.
//
// Because rule conditions inspect only the constraints they bind, a matching
// found here is a matching of any subquery containing its constraints, and
// conversely every subquery matching appears here — so the potential
// matchings can be reused for every safety check and SCM call over q.
func (t *Translator) PotentialMatchings(q *qtree.Node) ([]*qtree.ConstraintSet, error) {
	ms, err := t.matchings(q.Constraints())
	if err != nil {
		return nil, err
	}
	return matchingSets(ms), nil
}

// matchingSets deduplicates matchings to their constraint sets.
func matchingSets(ms []*rules.Matching) []*qtree.ConstraintSet {
	seen := make(map[string]bool, len(ms))
	var out []*qtree.ConstraintSet
	for _, m := range ms {
		id := m.Set.ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, m.Set)
		}
	}
	return out
}

// EDNF is Procedure EDNF (Figure 10): it computes the essential DNF
// D_e(q) of query q with respect to the potential matchings mp. Constraints
// that cannot participate in any potential cross-matching are nullified to
// ε, which keeps the safety checks of Algorithm PSafe proportional to the
// degree of constraint dependency rather than to query size (Section 8).
func (t *Translator) EDNF(q *qtree.Node, mp []*qtree.ConstraintSet) DNFExpr {
	var sp *obs.Span
	if t.tracer != nil {
		sp = t.tracer.Start(obs.KindEDNF, q.String())
		defer t.tracer.End()
		sp.Set(obs.CtrEssentialDNFSize, t.essentialSize(q.Constraints()))
	}
	d := t.ednfStep(q.Normalize(), mp)
	sp.Set(obs.CtrDisjuncts, int64(len(d)))
	return d
}

// ednfStep is subroutine ednf: post-order traversal computing D(q) from the
// children's D_e, then simplifying to D_e(q).
func (t *Translator) ednfStep(q *qtree.Node, mp []*qtree.ConstraintSet) DNFExpr {
	var d DNFExpr
	switch q.Kind {
	case qtree.KindTrue:
		d = Epsilon()
	case qtree.KindLeaf:
		d = DNFExpr{qtree.NewConstraintSet(q.C)}
	case qtree.KindOr:
		// Case-1: D(Q) is the concatenation of the children's EDNF.
		for _, k := range q.Kids {
			d = append(d, t.ednfStep(k, mp)...)
		}
	case qtree.KindAnd:
		// Case-2: D(Q) = Disjunctivize of the children's EDNF.
		exprs := make([]DNFExpr, len(q.Kids))
		for i, k := range q.Kids {
			exprs[i] = t.ednfStep(k, mp)
		}
		d = productExpr(exprs)
		t.Stats.ProductTerms += len(d)
	}
	if t.fullDNFSafety {
		return dedupeExpr(d) // ablation: keep the full DNF (Section 7.1.3)
	}
	return t.simplifyEDNF(d, mp)
}

// dedupeExpr removes duplicate disjuncts without nullification.
func dedupeExpr(d DNFExpr) DNFExpr {
	seen := make(map[string]bool, len(d))
	out := make(DNFExpr, 0, len(d))
	for _, disj := range d {
		id := disj.ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, disj)
		}
	}
	return out
}

// productExpr forms the cross product of DNF expressions, unioning the
// constraint sets of each combination.
func productExpr(exprs []DNFExpr) DNFExpr {
	terms := DNFExpr{qtree.NewConstraintSet()}
	for _, e := range exprs {
		next := make(DNFExpr, 0, len(terms)*len(e))
		for _, a := range terms {
			for _, b := range e {
				next = append(next, a.Union(b))
			}
		}
		terms = next
	}
	return terms
}

// simplifyEDNF implements step (2) of Procedure EDNF: nullify useless
// disjuncts (lines 17–22) and merge duplicates and ε's (lines 23–24).
//
// A disjunct D̂ is nullified when every potential matching m relevant to it
// (m ∩ C(D̂) ≠ ∅) is (a) wholly contained in D̂, and (b) either a single
// constraint or witnessed by some other disjunct D̂' disjoint from m — the
// condition ensuring the potential cross-matching is still discoverable
// through the other product terms, so no false positives arise.
// Nullification decisions are taken simultaneously against the incoming
// disjunct list, which keeps the procedure deterministic; a disjunct
// nullified in the same pass still counts as a disjoint witness, exactly as
// the ε's do in the paper's illustration.
//
// The nullification flags live in a translator-owned scratch buffer: ednf's
// post-order recursion finishes each child's simplification before the
// parent's begins, so the calls never overlap and one buffer serves the
// whole translation.
func (t *Translator) simplifyEDNF(d DNFExpr, mp []*qtree.ConstraintSet) DNFExpr {
	if cap(t.scratch.nullify) < len(d) {
		t.scratch.nullify = make([]bool, len(d))
	}
	nullify := t.scratch.nullify[:len(d)]
	for i := range nullify {
		nullify[i] = false
	}
	for i, disj := range d {
		if disj.IsEmpty() {
			continue
		}
		ok := true
		for _, m := range mp {
			if !m.Intersects(disj) {
				continue // irrelevant to this disjunct
			}
			if !m.SubsetOf(disj) {
				ok = false // m may combine with outside constraints
				break
			}
			if m.Len() == 1 {
				continue
			}
			witness := false
			for j, other := range d {
				if j != i && !m.Intersects(other) {
					witness = true
					break
				}
			}
			if !witness {
				ok = false
				break
			}
		}
		nullify[i] = ok
	}
	out := make(DNFExpr, 0, len(d))
	seen := make(map[string]bool, len(d))
	for i, disj := range d {
		if nullify[i] {
			disj = qtree.NewConstraintSet() // ε
		}
		id := disj.ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, disj)
		}
	}
	return out
}
