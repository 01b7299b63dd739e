package engine

import (
	"repro/internal/qtree"
)

// Index is a hash index over one attribute's values, accelerating equality
// selections. Indexes are built once over an immutable relation snapshot;
// rebuilding after mutation is the caller's responsibility.
type Index struct {
	attr    string
	buckets map[string][]Tuple
}

// BuildIndex indexes relation r on the named attribute. Tuples lacking the
// attribute are not indexed (an equality probe cannot select them).
func BuildIndex(r *Relation, attrName string) *Index {
	idx := &Index{attr: attrName, buckets: make(map[string][]Tuple)}
	for _, t := range r.Tuples {
		if v, ok := t[attrName]; ok {
			k := valueBucketKey(v)
			idx.buckets[k] = append(idx.buckets[k], t)
		}
	}
	return idx
}

// Attr returns the indexed attribute name.
func (ix *Index) Attr() string { return ix.attr }

// Probe returns the tuples whose indexed attribute equals v.
func (ix *Index) Probe(v qtree.Value) []Tuple {
	return ix.buckets[valueBucketKey(v)]
}

// ProbeKey returns the tuples bucketed under a canonical value-identity key
// (qtree.ValueKey / Constraint.ValueKey). Constraints cache their key, so
// probing this way costs no allocation.
func (ix *Index) ProbeKey(key string) []Tuple {
	return ix.buckets[key]
}

// valueBucketKey mirrors the canonical value identity used by constraint
// keys (numeric kinds share one identity).
func valueBucketKey(v qtree.Value) string {
	return qtree.ValueKey(v)
}

// IndexSet holds the indexes available on one relation, by attribute name.
type IndexSet map[string]*Index

// BuildIndexes builds indexes for each named attribute.
func BuildIndexes(r *Relation, attrs ...string) IndexSet {
	out := make(IndexSet, len(attrs))
	for _, a := range attrs {
		out[a] = BuildIndex(r, a)
	}
	return out
}

// SelectIndexed evaluates q over the relation like Select, but when q is a
// simple conjunction containing equality constraints on indexed attributes
// with *default* semantics, it probes the index whose bucket is smallest —
// the most selective probe, not merely the first eligible one — and
// evaluates the full query only on that bucket. Overridden operators
// (source-specific semantics such as Amazon's structured author match)
// disable the probe for that constraint, since their equality is not value
// identity. Results are identical to Select's up to tuple order.
func (r *Relation) SelectIndexed(q *qtree.Node, ev *Evaluator, indexes IndexSet) (*Relation, error) {
	q = q.Normalize()
	best, probed := probeBucket(q, ev, indexes)
	if !probed {
		return r.Select(q, ev)
	}
	out := &Relation{Name: r.Name}
	for _, t := range best {
		match, err := ev.EvalQuery(q, t)
		if err != nil {
			return nil, selectErr(r.Name, err)
		}
		if match {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// probeBucket returns the smallest bucket among the eligible equality
// probes of the normalized query q, and false when q has none: it is not a
// simple conjunction, or none of its equality constraints with a constant
// and default semantics is on an indexed attribute. SelectIndexed and
// Snapshot.Select share it, so both take the same candidates.
func probeBucket(q *qtree.Node, ev *Evaluator, indexes IndexSet) ([]Tuple, bool) {
	if !q.IsSimpleConjunction() {
		return nil, false
	}
	var best []Tuple
	probed := false
	for _, c := range q.SimpleConjuncts() {
		if c.IsJoin() || c.Op != qtree.OpEq || c.Val == nil {
			continue
		}
		if ev.hasOverride(c.Attr.Name, c.Op) {
			continue
		}
		ix, ok := indexes[c.AttrKey()]
		if !ok {
			continue
		}
		bucket := ix.ProbeKey(c.ValueKey())
		if !probed || len(bucket) < len(best) {
			best, probed = bucket, true
		}
	}
	return best, probed
}
