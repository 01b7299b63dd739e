package engine

import (
	"fmt"
	"strings"

	"repro/internal/qtree"
	"repro/internal/values"
)

// OpFunc evaluates a single selection predicate: tv is the tuple's value of
// the constrained attribute, cv the constraint's constant.
type OpFunc func(tv, cv qtree.Value) (bool, error)

// Evaluator evaluates constraint queries over tuples. Overrides registered
// with Override take precedence over the default operator semantics, keyed
// by (attribute name, operator); this is how sources with special attribute
// semantics (Example 8's Cll/Cur corners) plug in.
type Evaluator struct {
	overrides map[opKey]OpFunc
	// MissingIsFalse controls evaluation when the tuple lacks the
	// constrained attribute: if true the constraint is simply false; if
	// false (the default) evaluation fails with an error, which catches
	// vocabulary mismatches in tests.
	MissingIsFalse bool
}

// opKey keys an override by bare attribute name and operator.
type opKey struct{ attr, op string }

// NewEvaluator returns an evaluator with the default operator semantics.
func NewEvaluator() *Evaluator {
	return &Evaluator{overrides: make(map[opKey]OpFunc)}
}

// Override installs fn for constraints on the named attribute (by bare
// attribute name, ignoring view/relation qualifiers) with operator op. fn
// must be a pure function of its operands: a compiled snapshot selection
// calls it once per distinct value and reuses the outcome.
func (e *Evaluator) Override(attrName, op string, fn OpFunc) {
	e.overrides[opKey{attrName, op}] = fn
}

// hasOverride reports whether a custom predicate is installed for the
// attribute/operator pair; index probes must not bypass it.
func (e *Evaluator) hasOverride(attrName, op string) bool {
	_, ok := e.overrides[opKey{attrName, op}]
	return ok
}

// EvalQuery evaluates a whole query tree against a tuple.
func (e *Evaluator) EvalQuery(q *qtree.Node, t Tuple) (bool, error) {
	return e.evalRows(q, []Tuple{t})
}

// evalRows evaluates q against the merge of rows without building it: each
// attribute is read from the last row carrying it, as in Merge. EvalQuery
// passes its tuple as the only row; Join passes one row per relation.
func (e *Evaluator) evalRows(q *qtree.Node, rows []Tuple) (bool, error) {
	switch q.Kind {
	case qtree.KindTrue:
		return true, nil
	case qtree.KindLeaf:
		return e.evalLeaf(q.C, rows)
	case qtree.KindAnd:
		for _, k := range q.Kids {
			ok, err := e.evalRows(k, rows)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case qtree.KindOr:
		for _, k := range q.Kids {
			ok, err := e.evalRows(k, rows)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("engine: invalid node kind %v", q.Kind)
	}
}

// EvalConstraint evaluates a single constraint against a tuple. It looks
// attributes up by the constraint's cached keys, so a constructor-built
// constraint evaluates without allocating.
func (e *Evaluator) EvalConstraint(c *qtree.Constraint, t Tuple) (bool, error) {
	return e.evalLeaf(c, []Tuple{t})
}

// evalLeaf evaluates a single constraint against the merge of rows.
func (e *Evaluator) evalLeaf(c *qtree.Constraint, rows []Tuple) (bool, error) {
	lv, lok := lookupRows(rows, c.AttrKey())
	var rv qtree.Value
	rok := false
	if c.IsJoin() {
		rv, rok = lookupRows(rows, c.RAttrKey())
	}
	return e.leaf(c, e.overrides[opKey{c.Attr.Name, c.Op}], lv, lok, rv, rok)
}

// leaf is a constraint's evaluation once its operands are read: lv and rv
// are the tuple's values of c's attribute and, for a join constraint, of
// its right attribute, lok and rok whether the tuple carries them. fn is
// c's operator function, or nil for DefaultOp's semantics: evalLeaf passes
// c's override, if any, and compiled selections pass op(c), resolved once.
// Both paths end here, so they cannot drift.
func (e *Evaluator) leaf(c *qtree.Constraint, fn OpFunc, lv qtree.Value, lok bool, rv qtree.Value, rok bool) (bool, error) {
	if !lok {
		if e.MissingIsFalse {
			return false, nil
		}
		return false, fmt.Errorf("engine: tuple lacks attribute %s", c.Attr)
	}
	if c.IsJoin() {
		if !rok {
			if e.MissingIsFalse {
				return false, nil
			}
			return false, fmt.Errorf("engine: tuple lacks attribute %s", c.RAttr)
		}
	} else {
		rv = c.Val
	}
	if fn == nil {
		return DefaultOp(c.Op, lv, rv)
	}
	return fn(lv, rv)
}

// op returns c's operator function: the override installed for its
// attribute and operator, else the default semantics of the operator.
func (e *Evaluator) op(c *qtree.Constraint) OpFunc {
	if fn, ok := e.overrides[opKey{c.Attr.Name, c.Op}]; ok {
		return fn
	}
	return defaultOp(c.Op)
}

// lookupRows reads attribute k of the merge of rows: the last row carrying
// k wins, as in Merge.
func lookupRows(rows []Tuple, k string) (qtree.Value, bool) {
	for i := len(rows) - 1; i >= 0; i-- {
		if v, ok := rows[i][k]; ok {
			return v, true
		}
	}
	return nil, false
}

// DefaultOp implements the standard operator semantics. It dispatches to
// the functions defaultOp resolves operators to, so the tuple path's
// per-evaluation dispatch and compiled selections agree.
func DefaultOp(op string, lv, rv qtree.Value) (bool, error) {
	switch op {
	case qtree.OpEq:
		return opEq(lv, rv)
	case qtree.OpNe:
		return opNe(lv, rv)
	case qtree.OpLt:
		return opLt(lv, rv)
	case qtree.OpLe:
		return opLe(lv, rv)
	case qtree.OpGt:
		return opGt(lv, rv)
	case qtree.OpGe:
		return opGe(lv, rv)
	case qtree.OpContains:
		return evalContains(lv, rv)
	case qtree.OpStarts:
		return opStarts(lv, rv)
	case qtree.OpDuring:
		return opDuring(lv, rv)
	default:
		return false, fmt.Errorf("engine: unsupported operator %q", op)
	}
}

// defaultOp resolves an operator name to its default semantics once, for
// compiled selections. An unknown operator resolves to DefaultOp's report
// of it, so the error surfaces only when a tuple reaches the constraint.
func defaultOp(op string) OpFunc {
	switch op {
	case qtree.OpEq:
		return opEq
	case qtree.OpNe:
		return opNe
	case qtree.OpLt:
		return opLt
	case qtree.OpLe:
		return opLe
	case qtree.OpGt:
		return opGt
	case qtree.OpGe:
		return opGe
	case qtree.OpContains:
		return evalContains
	case qtree.OpStarts:
		return opStarts
	case qtree.OpDuring:
		return opDuring
	default:
		return func(lv, rv qtree.Value) (bool, error) { return DefaultOp(op, lv, rv) }
	}
}

func opEq(lv, rv qtree.Value) (bool, error) { return lv.Equal(rv), nil }

func opNe(lv, rv qtree.Value) (bool, error) { return !lv.Equal(rv), nil }

func opLt(lv, rv qtree.Value) (bool, error) {
	cmp, err := Compare(lv, rv)
	return err == nil && cmp < 0, err
}

func opLe(lv, rv qtree.Value) (bool, error) {
	cmp, err := Compare(lv, rv)
	return err == nil && cmp <= 0, err
}

func opGt(lv, rv qtree.Value) (bool, error) {
	cmp, err := Compare(lv, rv)
	return err == nil && cmp > 0, err
}

func opGe(lv, rv qtree.Value) (bool, error) {
	cmp, err := Compare(lv, rv)
	return err == nil && cmp >= 0, err
}

func opStarts(lv, rv qtree.Value) (bool, error) {
	ls, ok1 := asString(lv)
	rs, ok2 := asString(rv)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("engine: starts needs string operands, got %s/%s", lv.Kind(), rv.Kind())
	}
	return strings.HasPrefix(strings.ToLower(ls), strings.ToLower(rs)), nil
}

// opDuring: [pdate during May/97] holds when the constant period contains
// the tuple date.
func opDuring(lv, rv qtree.Value) (bool, error) {
	ld, ok1 := lv.(values.Date)
	rd, ok2 := rv.(values.Date)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("engine: during needs date operands, got %s/%s", lv.Kind(), rv.Kind())
	}
	return rd.Contains(ld), nil
}

func evalContains(lv, rv qtree.Value) (bool, error) {
	text, ok := asString(lv)
	if !ok {
		return false, fmt.Errorf("engine: contains needs a string attribute, got %s", lv.Kind())
	}
	switch p := rv.(type) {
	case *values.Pattern:
		return p.Match(text), nil
	case values.String:
		return values.Word(p.Raw()).Match(text), nil
	default:
		return false, fmt.Errorf("engine: contains needs a pattern or string constant, got %s", rv.Kind())
	}
}

func asString(v qtree.Value) (string, bool) {
	s, ok := v.(values.String)
	if !ok {
		return "", false
	}
	return s.Raw(), true
}

// Compare orders two values of the same family: numbers numerically,
// strings lexicographically, dates chronologically (by year, month, day
// with unspecified components ordered first).
func Compare(a, b qtree.Value) (int, error) {
	if x, ok := values.Numeric(a); ok {
		if y, ok := values.Numeric(b); ok {
			switch {
			case x < y:
				return -1, nil
			case x > y:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	if x, ok := a.(values.String); ok {
		if y, ok := b.(values.String); ok {
			return strings.Compare(string(x), string(y)), nil
		}
	}
	if x, ok := a.(values.Date); ok {
		if y, ok := b.(values.Date); ok {
			ka := [3]int{x.Year, x.Month, x.Day}
			kb := [3]int{y.Year, y.Month, y.Day}
			for i := range ka {
				if ka[i] != kb[i] {
					if ka[i] < kb[i] {
						return -1, nil
					}
					return 1, nil
				}
			}
			return 0, nil
		}
	}
	return 0, fmt.Errorf("engine: cannot compare %s with %s", a.Kind(), b.Kind())
}
