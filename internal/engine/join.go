package engine

import (
	"encoding/binary"

	"repro/internal/qtree"
	"repro/internal/values"
)

// Join answers join-style integration (Eq. 2) over the per-source
// selections rels: it returns exactly what the chain
//
//	Product(…Product(rels[0], rels[1])…, rels[n-1]).Select(glue).Select(filter)
//
// returns — the same tuples in the same product order (outer relation
// first), the same relation name ("t1xt2"), and the same first error with
// the same text — without materializing the product. A nil glue or filter
// selects every pair; no relations give an empty, unnamed relation.
//
// It runs the chain's two selections as two passes over the pairs. Pass 1
// evaluates the glue on every candidate pair, in product order, and lists
// the survivors; a glue error is returned here, before F has run. Pass 2
// evaluates F on the survivors in the same order and merges a pair into a
// tuple only when F holds. When the glue admits a hash probe (see
// planProbe), the candidates of an outer row are the innermost relation's
// rows in the matching bucket, in ascending position; otherwise every
// pair is a candidate. Either way the full glue decides.
func Join(rels []*Relation, glue, filter *qtree.Node, ev *Evaluator) (*Relation, error) {
	if len(rels) == 0 {
		return &Relation{}, nil
	}
	out := &Relation{Name: rels[0].Name}
	for _, r := range rels[1:] {
		out.Name += "x" + r.Name
	}
	for _, r := range rels {
		if len(r.Tuples) == 0 {
			return out, nil
		}
	}
	n := len(rels)
	inner := rels[n-1].Tuples
	pr := planProbe(rels, glue, ev)
	var all []int32
	if pr == nil {
		all = make([]int32, len(inner))
		for i := range all {
			all[i] = int32(i)
		}
	}

	rows := make([]Tuple, n) // the current pair, one row per relation
	pos := make([]int32, n)  // the rows' positions
	var survivors []int32    // n positions per glue survivor, in product order
	for {
		for i := 0; i < n-1; i++ {
			rows[i] = rels[i].Tuples[pos[i]]
		}
		cands := all
		if pr != nil {
			cands = pr.candidates(rows[:n-1])
		}
		for _, p := range cands {
			rows[n-1] = inner[p]
			if glue != nil {
				ok, err := ev.evalRows(glue, rows)
				if err != nil {
					return nil, selectErr(out.Name, err)
				}
				if !ok {
					continue
				}
			}
			pos[n-1] = p
			survivors = append(survivors, pos...)
		}
		if !nextOuter(pos[:n-1], rels) {
			break
		}
	}

	for s := 0; s < len(survivors); s += n {
		for i := range rows {
			rows[i] = rels[i].Tuples[survivors[s+i]]
		}
		if filter != nil {
			ok, err := ev.evalRows(filter, rows)
			if err != nil {
				return nil, selectErr(out.Name, err)
			}
			if !ok {
				continue
			}
		}
		out.Tuples = append(out.Tuples, mergeRows(rows))
	}
	return out, nil
}

// nextOuter advances the outer positions to the next outer row in product
// order (the last outer relation fastest); false once they are exhausted.
func nextOuter(pos []int32, rels []*Relation) bool {
	for i := len(pos) - 1; i >= 0; i-- {
		if pos[i]++; int(pos[i]) < len(rels[i].Tuples) {
			return true
		}
		pos[i] = 0
	}
	return false
}

// mergeRows builds the tuple Product would have built for the pair: every
// row's attributes, later rows winning on shared keys. A single row is its
// own product tuple, as in the chain.
func mergeRows(rows []Tuple) Tuple {
	if len(rows) == 1 {
		return rows[0]
	}
	size := 0
	for _, r := range rows {
		size += len(r)
	}
	t := make(Tuple, size)
	for _, r := range rows {
		for k, v := range r {
			t[k] = v
		}
	}
	return t
}

// joinProbe is Join's hash side: the innermost relation's positions bucketed
// by the string values of the glue's equi-join conjuncts, and the outer
// attribute each conjunct compares with.
type joinProbe struct {
	outer []string           // outer-side attribute key, per conjunct
	index map[string][]int32 // composite inner key → ascending positions
	buf   []byte
}

// planProbe returns the hash probe for glue over rels, or nil when every
// pair must be evaluated. It probes only what cannot change the answer or
// the error — the rule Access follows.
//
// The whole glue must be provably error-free on these inputs, so a pair
// the probe skips hides no error: every leaf is = or !=, no evaluator
// override is registered for the leaf's (attribute, operator), and every
// attribute it reads is carried by every tuple of some relation.
//
// Each top-level equi-join conjunct [x = y] must then hold for a pair to
// satisfy the glue. It is probed when x is carried by every outer row and
// by no inner tuple, y by every inner tuple and by no outer tuple, and
// every value on both sides is a values.String: string Equal is byte
// equality, so the hash key finds exactly the rows it holds for. Numbers
// are left to evaluation, since Int and Float equal across kinds (3 =
// 3.0) and NaN equals nothing.
func planProbe(rels []*Relation, glue *qtree.Node, ev *Evaluator) *joinProbe {
	n := len(rels)
	if n < 2 || glue == nil {
		return nil
	}
	keys := map[string]*keyCover{}
	if !errorFreeLeaves(glue, ev, keys) {
		return nil
	}
	for k, kc := range keys {
		kc.count, kc.str = make([]int, n), true
		for i, r := range rels {
			for _, t := range r.Tuples {
				if v, ok := t[k]; ok {
					kc.count[i]++
					_, isStr := v.(values.String)
					kc.str = kc.str && isStr
				}
			}
		}
		carried := false
		for i, r := range rels {
			carried = carried || kc.count[i] == len(r.Tuples)
		}
		if !carried {
			return nil
		}
	}

	var outer, inner []string
	for _, kid := range glue.Conjuncts() {
		c := kid.C
		if kid.Kind != qtree.KindLeaf || !c.IsJoin() || c.Op != qtree.OpEq {
			continue
		}
		a, b := keys[c.AttrKey()], keys[c.RAttrKey()]
		if !a.str || !b.str {
			continue
		}
		switch {
		case a.outerSide(rels) && b.innerSide(rels):
			outer, inner = append(outer, c.AttrKey()), append(inner, c.RAttrKey())
		case b.outerSide(rels) && a.innerSide(rels):
			outer, inner = append(outer, c.RAttrKey()), append(inner, c.AttrKey())
		}
	}
	if len(outer) == 0 {
		return nil
	}
	pr := &joinProbe{outer: outer, index: make(map[string][]int32)}
	for p, t := range rels[n-1].Tuples {
		pr.buf = pr.buf[:0]
		for _, k := range inner {
			pr.buf = appendProbeKey(pr.buf, t[k])
		}
		key := string(pr.buf)
		pr.index[key] = append(pr.index[key], int32(p))
	}
	return pr
}

// candidates returns the inner positions whose probe key matches the
// outer row's, in ascending order.
func (pr *joinProbe) candidates(outer []Tuple) []int32 {
	pr.buf = pr.buf[:0]
	for _, k := range pr.outer {
		v, _ := lookupRows(outer, k)
		pr.buf = appendProbeKey(pr.buf, v)
	}
	return pr.index[string(pr.buf)]
}

// appendProbeKey appends one component of a composite probe key: the
// string's length, then its bytes, so no two value lists share a key.
func appendProbeKey(b []byte, v qtree.Value) []byte {
	s := v.(values.String)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// keyCover records how the relations carry one attribute key the glue
// reads: count[i] tuples of rels[i] carry it, and str is whether every
// carried value is a values.String.
type keyCover struct {
	count []int
	str   bool
}

// outerSide reports whether every outer row carries the key and no inner
// tuple does.
func (kc *keyCover) outerSide(rels []*Relation) bool {
	n := len(rels)
	if kc.count[n-1] != 0 {
		return false
	}
	for i, r := range rels[:n-1] {
		if kc.count[i] == len(r.Tuples) {
			return true
		}
	}
	return false
}

// innerSide reports whether every inner tuple carries the key and no outer
// tuple does.
func (kc *keyCover) innerSide(rels []*Relation) bool {
	n := len(rels)
	for i := range rels[:n-1] {
		if kc.count[i] != 0 {
			return false
		}
	}
	return kc.count[n-1] == len(rels[n-1].Tuples)
}

// errorFreeLeaves reports whether q's evaluation can fail only by a missing
// attribute: every node is a valid kind and every leaf is a default-
// semantics = or !=. It records the attribute keys the leaves read.
func errorFreeLeaves(q *qtree.Node, ev *Evaluator, keys map[string]*keyCover) bool {
	switch q.Kind {
	case qtree.KindTrue:
		return true
	case qtree.KindLeaf:
		c := q.C
		if (c.Op != qtree.OpEq && c.Op != qtree.OpNe) || ev.hasOverride(c.Attr.Name, c.Op) {
			return false
		}
		keys[c.AttrKey()] = &keyCover{}
		if c.IsJoin() {
			keys[c.RAttrKey()] = &keyCover{}
		}
		return true
	case qtree.KindAnd, qtree.KindOr:
		for _, k := range q.Kids {
			if !errorFreeLeaves(k, ev, keys) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
