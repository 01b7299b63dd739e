// Package engine is a small in-memory relational engine: typed tuples,
// relations, constraint-query selection, cross products and joins. It is the
// substrate on which the reproduction *executes* translated queries so that
// the paper's subsumption guarantees (Definition 1, Eq. 3) can be verified
// empirically rather than only on paper.
//
// Constraint evaluation is pluggable per attribute/operator so that sources
// with non-standard attribute semantics — like Example 8's map source, where
// [Cll = (10,20)] selects the open region x ≥ 10 ∧ y ≥ 20 — can supply
// their own predicates.
package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/qtree"
	"repro/internal/values"
)

// Tuple maps attribute keys (qtree.Attr.Key()) to values. A tuple may carry
// attributes from several vocabularies at once — the mediator's view
// attributes and a source's native attributes — mirroring the paper's
// conceptual relations X that relate the two (Section 2). That is what lets
// a single tuple witness both an original query and its translation.
type Tuple map[string]qtree.Value

// Get returns the value of attribute a.
func (t Tuple) Get(a qtree.Attr) (qtree.Value, bool) {
	v, ok := t[a.Key()]
	return v, ok
}

// Set stores the value of attribute a.
func (t Tuple) Set(a qtree.Attr, v qtree.Value) { t[a.Key()] = v }

// Clone returns a shallow copy (values are immutable).
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for k, v := range t {
		c[k] = v
	}
	return c
}

// Merge returns the union of two tuples; keys of u win on conflict.
func (t Tuple) Merge(u Tuple) Tuple {
	c := t.Clone()
	for k, v := range u {
		c[k] = v
	}
	return c
}

// String renders the tuple deterministically: {k1=v1, k2=v2, ...} in key
// order, each value as its String(). The rendering is the tuple's identity
// for dedup and ordering on every union path, so it is built in one stack
// buffer and allocates once, for the result, when every value is a String
// or an Int; other kinds cost their own String().
func (t Tuple) String() string {
	var keyArr [32]string
	keys := keyArr[:0]
	for k := range t {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var bufArr [1024]byte
	b := append(bufArr[:0], '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, k...)
		b = append(b, '=')
		b = AppendValue(b, t[k])
	}
	b = append(b, '}')
	return string(b)
}

// AppendValue appends v.String() to b, formatting the common kinds directly.
func AppendValue(b []byte, v qtree.Value) []byte {
	switch x := v.(type) {
	case values.String:
		return appendQuoted(b, string(x))
	case values.Int:
		return strconv.AppendInt(b, int64(x), 10)
	default:
		return append(b, v.String()...)
	}
}

// appendQuoted appends strconv.Quote(s). Printable ASCII without quotes or
// backslashes quotes as itself; anything else takes strconv's escaping.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Ranks orders a fixed set of tuples the way their String renderings order,
// without rendering them again. It maps each ranked tuple, by the identity
// of its map, to the rank of its rendering among all the ranked tuples;
// tuples whose renderings are equal share a rank. So for ranked tuples t and
// u, t.String() < u.String() exactly when t's rank is below u's, and the
// renderings are equal exactly when the ranks are. A Ranks is immutable and
// safe for concurrent use; a ranked tuple must not be mutated, or its rank
// goes stale.
type Ranks struct {
	rank map[unsafe.Pointer]int32
}

// BuildRanks renders every tuple of rels once and ranks them. A tuple map
// held by several relations, or twice by one, is ranked once.
func BuildRanks(rels ...*Relation) *Ranks {
	type rendered struct {
		id  unsafe.Pointer
		key string
	}
	var all []rendered
	rank := make(map[unsafe.Pointer]int32)
	for _, r := range rels {
		for _, t := range r.Tuples {
			id := tupleID(t)
			if _, dup := rank[id]; !dup {
				rank[id] = 0
				all = append(all, rendered{id, t.String()})
			}
		}
	}
	slices.SortFunc(all, func(a, b rendered) int { return strings.Compare(a.key, b.key) })
	r := int32(-1)
	for i, e := range all {
		if i == 0 || e.key != all[i-1].key {
			r++
		}
		rank[e.id] = r
	}
	return &Ranks{rank: rank}
}

// Rank returns t's rank, and false when t is not one of the ranked tuples
// (a tuple with equal content but a map of its own is not).
func (rk *Ranks) Rank(t Tuple) (int32, bool) {
	r, ok := rk.rank[tupleID(t)]
	return r, ok
}

// tupleID is the identity of t's map.
func tupleID(t Tuple) unsafe.Pointer { return reflect.ValueOf(t).UnsafePointer() }

// Relation is a named bag of tuples.
type Relation struct {
	Name   string
	Tuples []Tuple
}

// NewRelation returns a relation with the given name and tuples.
func NewRelation(name string, tuples ...Tuple) *Relation {
	return &Relation{Name: name, Tuples: tuples}
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// Select evaluates q over every tuple and returns the satisfying ones.
func (r *Relation) Select(q *qtree.Node, ev *Evaluator) (*Relation, error) {
	out := &Relation{Name: r.Name}
	for _, t := range r.Tuples {
		ok, err := ev.EvalQuery(q, t)
		if err != nil {
			return nil, selectErr(r.Name, err)
		}
		if ok {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

// selectErr wraps an evaluation error the way Select reports it; Join,
// SelectIndexed and SelectAccess report theirs the same way.
func selectErr(name string, err error) error {
	return fmt.Errorf("engine: selecting from %s: %w", name, err)
}

// Product returns the cross product of two relations; tuple attribute sets
// are expected to be disjoint (qualified by view/relation), and u's values
// win on conflict.
func Product(r, u *Relation) *Relation {
	out := &Relation{Name: r.Name + "x" + u.Name}
	for _, a := range r.Tuples {
		for _, b := range u.Tuples {
			out.Tuples = append(out.Tuples, a.Merge(b))
		}
	}
	return out
}
