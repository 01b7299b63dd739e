package core

import (
	"repro/internal/obs"
	"repro/internal/qtree"
)

// TDQM is Algorithm TDQM (Figure 8): top-down query mapping. It traverses
// the query tree, separating disjuncts freely (Case-1), partitioning the
// conjuncts of complex conjunctions into safe blocks with Algorithm PSafe
// and locally Disjunctivizing only the inseparable blocks (Case-2), and
// mapping simple conjunctions with Algorithm SCM (Case-3).
//
// Given a sound and complete specification, the output is the minimal
// subsuming mapping of q (Theorem 2), and — unlike Algorithm DNF — the
// query structure is rewritten only where constraint dependencies demand it,
// so the output stays compact (Section 8).
func (t *Translator) TDQM(q *qtree.Node) (*qtree.Node, error) {
	defer t.begin(true)()
	q = q.Normalize()
	if t.tracer != nil {
		cs := q.Constraints()
		t.traceEnter(cs)
		defer t.traceExit()
		sp := t.tracer.Start(obs.KindTDQM, q.String())
		defer t.tracer.End()
		sp.Set(obs.CtrQuerySize, int64(q.Size()))
		sp.Set(obs.CtrEssentialDNFSize, t.essentialSize(cs))
	}
	switch {
	case q.Kind == qtree.KindOr:
		// Case-1: disjuncts are always separable — map them concurrently
		// when a worker pool is configured.
		if t.parallelEligible(len(q.Kids)) {
			kids, err := t.mapBranches(q.Kids, (*Translator).TDQM)
			if err != nil {
				return nil, err
			}
			return qtree.Or(kids...).Normalize(), nil
		}
		kids := make([]*qtree.Node, len(q.Kids))
		for i, d := range q.Kids {
			s, err := t.TDQM(d)
			if err != nil {
				return nil, err
			}
			kids[i] = s
		}
		return qtree.Or(kids...).Normalize(), nil

	case q.IsSimpleConjunction():
		// Case-3: base case — Algorithm SCM.
		res, err := t.SCM(q.SimpleConjuncts())
		if err != nil {
			return nil, err
		}
		return res.Query, nil

	default: // ∧-node with at least one non-leaf child
		// Case-2: partition the conjuncts into safe blocks, rewrite each
		// multi-conjunct block into disjunctive form, and recurse.
		p, err := t.PSafe(q.Kids)
		if err != nil {
			return nil, err
		}
		t.tracePartition(q.Kids, p)
		kids := make([]*qtree.Node, len(p.Blocks))
		for i, blk := range p.Blocks {
			conj := make([]*qtree.Node, len(blk))
			for j, x := range blk {
				conj[j] = q.Kids[x]
			}
			var b *qtree.Node
			if len(conj) == 1 {
				b = conj[0]
			} else {
				t.Stats.Disjunctivizations++
				t.metrics.Disjunctivization(t.Spec.Name)
				b = qtree.Disjunctivize(conj)
				t.traceRewrite(conj, b)
			}
			s, err := t.TDQM(b)
			if err != nil {
				return nil, err
			}
			kids[i] = s
		}
		return qtree.And(kids...).Normalize(), nil
	}
}
