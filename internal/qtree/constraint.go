package qtree

import (
	"strings"
)

// Operator names used across the library. Rules and targets may introduce
// additional operators; these are the ones the paper's examples use.
const (
	OpEq       = "="
	OpNe       = "!="
	OpLt       = "<"
	OpLe       = "<="
	OpGt       = ">"
	OpGe       = ">="
	OpContains = "contains"
	OpStarts   = "starts"
	OpDuring   = "during"
)

// InverseOp returns the operator op2 such that [a op b] ≡ [b op2 a], and
// whether such an inverse exists. Symmetric operators are their own inverse.
func InverseOp(op string) (string, bool) {
	switch op {
	case OpEq, OpNe:
		return op, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	default:
		return "", false
	}
}

// Constraint is a single selection condition [attr op value] or join
// condition [attr1 op attr2] (Section 2). Exactly one of Val and RAttr is
// set: Val for selections, RAttr for joins.
type Constraint struct {
	Attr  Attr
	Op    string
	Val   Value // selection constant; nil for join constraints
	RAttr *Attr // right-hand attribute; nil for selection constraints

	// key caches the canonical identity computed by the constructors.
	// Constraints assembled as raw composite literals leave it empty and
	// Key() falls back to a stateless computation, so a missing cache can
	// never be wrong — only slower.
	key string
	// rOff is the byte offset inside key of the right-hand component: the
	// value key of a selection, the second attribute key of a join. It is
	// negated for a join whose normalized key puts RAttr first. Zero means
	// "not cached" (the minimal real offset is 4). Together with len(Op)
	// it locates every component of key, so the accessors below slice
	// instead of rebuilding strings.
	rOff int
}

// Sel constructs a selection constraint [attr op val].
func Sel(attr Attr, op string, val Value) *Constraint {
	c := &Constraint{Attr: attr, Op: op, Val: val}
	c.key, c.rOff = c.computeKey()
	return c
}

// Join constructs a join constraint [left op right].
func Join(left Attr, op string, right Attr) *Constraint {
	r := right
	c := &Constraint{Attr: left, Op: op, RAttr: &r}
	c.key, c.rOff = c.computeKey()
	return c
}

// IsJoin reports whether c is a join constraint.
func (c *Constraint) IsJoin() bool { return c.RAttr != nil }

// String renders the constraint in the paper's bracketed syntax,
// e.g. [ln = "Clancy"] or [fac.ln = pub.ln].
func (c *Constraint) String() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteString(c.Attr.String())
	b.WriteByte(' ')
	b.WriteString(c.Op)
	b.WriteByte(' ')
	if c.IsJoin() {
		b.WriteString(c.RAttr.String())
	} else if c.Val != nil {
		b.WriteString(c.Val.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Key returns a canonical identity string. Two constraints with equal keys
// are treated as the same constraint by the matching machinery (matchings
// are sets of constraints, Section 4.1). Join constraints are normalized so
// that [a op b] and [b inv(op) a] share a key.
func (c *Constraint) Key() string {
	if c.key != "" {
		return c.key
	}
	k, _ := c.computeKey()
	return k
}

// computeKey derives the canonical key from scratch, with the offset of its
// right-hand component (see rOff). The join branch inlines Normalize's
// operator-direction rules rather than calling it, so constructor key
// caching cannot recurse through the intermediate Join allocation.
func (c *Constraint) computeKey() (string, int) {
	if !c.IsJoin() {
		a := c.Attr.Key()
		return "[" + a + " " + c.Op + " " + valueKey(c.Val) + "]", 1 + len(a) + 1 + len(c.Op) + 1
	}
	l, r, op := c.Attr, *c.RAttr, c.Op
	swapped := false
	switch op {
	case OpLt: // prefer ">"
		op = OpGt
		l, r, swapped = r, l, true
	case OpLe: // prefer ">="
		op = OpGe
		l, r, swapped = r, l, true
	case OpEq, OpNe:
		if l.Key() > r.Key() {
			l, r, swapped = r, l, true
		}
	}
	lk := l.Key()
	off := 1 + len(lk) + 1 + len(op) + 1
	if swapped {
		off = -off
	}
	return "[" + lk + " " + op + " " + r.Key() + "]", off
}

// sides slices a cached key into the left attribute key and the right-hand
// component (value key or right attribute key), in Attr/RAttr order.
// Normalization keeps the operator's length, so len(c.Op) locates the gap.
func (c *Constraint) sides() (left, right string) {
	off, swapped := c.rOff, false
	if off < 0 {
		off, swapped = -off, true
	}
	first, second := c.key[1:off-len(c.Op)-2], c.key[off:len(c.key)-1]
	if swapped {
		return second, first
	}
	return first, second
}

// AttrKey returns c.Attr.Key(). For constructor-built constraints it slices
// the cached key without allocating, which keeps per-tuple evaluation and
// index probes off the allocator.
func (c *Constraint) AttrKey() string {
	if c.rOff == 0 {
		return c.Attr.Key()
	}
	l, _ := c.sides()
	return l
}

// RAttrKey returns c.RAttr.Key() for a join constraint, slicing the cached
// key like AttrKey. Selection constraints have no right attribute and
// return "".
func (c *Constraint) RAttrKey() string {
	if !c.IsJoin() {
		return ""
	}
	if c.rOff == 0 {
		return c.RAttr.Key()
	}
	_, r := c.sides()
	return r
}

// ValueKey returns the canonical identity of the constraint's constant: the
// value-key component of Key(). For constructor-built selection constraints
// it slices the cached key without allocating, which keeps index probes off
// the allocator. Join constraints have no constant and return "".
func (c *Constraint) ValueKey() string {
	if c.IsJoin() {
		return ""
	}
	if c.rOff == 0 {
		return valueKey(c.Val)
	}
	_, v := c.sides()
	return v
}

// ValueKey returns the canonical identity string of a constant value — the
// same identity constraint keys embed (numeric kinds share one identity), so
// engine-side value buckets and constraint probes agree byte-for-byte.
func ValueKey(v Value) string { return valueKey(v) }

func valueKey(v Value) string {
	if v == nil {
		return "<nil>"
	}
	kind := v.Kind()
	// Integers and floats share one numeric identity (3 ≡ 3.0), matching
	// Value.Equal and the engine's comparison semantics.
	if kind == "int" || kind == "float" {
		kind = "num"
	}
	return kind + ":" + v.String()
}

// Equal reports whether two constraints are identical under normalization.
func (c *Constraint) Equal(d *Constraint) bool {
	if c == nil || d == nil {
		return c == d
	}
	return c.Key() == d.Key()
}

// Normalize returns a canonical form of the constraint (Section 4.2): join
// constraints written with the preferred operator direction, and symmetric
// operators with attributes in lexicographic order. Selection constraints
// are returned unchanged.
func (c *Constraint) Normalize() *Constraint {
	if !c.IsJoin() {
		return c
	}
	l, r, op := c.Attr, *c.RAttr, c.Op
	flip := false
	switch op {
	case OpLt: // prefer ">"
		op, flip = OpGt, true
	case OpLe: // prefer ">="
		op, flip = OpGe, true
	case OpEq, OpNe:
		if l.Key() > r.Key() {
			flip = true
		}
	}
	if flip {
		l, r = r, l
	}
	if l == c.Attr && op == c.Op {
		return c
	}
	return Join(l, op, r)
}

// Clone returns a deep copy of the constraint. Values are immutable and
// shared.
func (c *Constraint) Clone() *Constraint {
	cp := *c
	if c.RAttr != nil {
		r := *c.RAttr
		cp.RAttr = &r
	}
	return &cp
}
