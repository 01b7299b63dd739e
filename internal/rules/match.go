package rules

import (
	"fmt"

	"repro/internal/qtree"
)

// Matching is one match of a rule's head against a subset of a query's
// constraints (Section 4.1): the constraint set, the variable binding, and
// the instantiated emission S(∧(m)).
type Matching struct {
	Rule     *Rule
	Set      *qtree.ConstraintSet
	Binding  Binding
	Emission *qtree.Node
}

// ID is a canonical identity for deduplication across enumeration orders.
func (m *Matching) ID() string {
	return m.Rule.Name + "|" + m.Set.ID() + "|" + m.Emission.CanonicalKey()
}

// String renders the matching for diagnostics.
func (m *Matching) String() string {
	return fmt.Sprintf("%s%s -> %s", m.Rule.Name, m.Set, m.Emission)
}

// matchRule enumerates all matchings of rule r against the given
// constraints. Patterns are assigned to distinct constraints; for join
// constraints with symmetric or invertible operators the flipped orientation
// is also tried. Matchings whose lets fail are dropped (the conversion is
// inapplicable, so the rule provides no mapping for that combination).
func matchRule(r *Rule, cs []*qtree.Constraint, reg *Registry) ([]*Matching, error) {
	// Candidate constraints per pattern, pre-filtered on operator and
	// literal attribute components to keep the search linear in practice.
	cands := make([][]*qtree.Constraint, len(r.Patterns))
	for i, p := range r.Patterns {
		for _, c := range cs {
			for _, v := range orientations(c) {
				if quickReject(p, v) {
					continue
				}
				cands[i] = append(cands[i], v)
			}
		}
		if len(cands[i]) == 0 {
			return nil, nil
		}
	}

	var out []*Matching
	seen := make(map[string]bool)
	used := make(map[string]bool) // constraint keys already taken
	assign := make([]*qtree.Constraint, len(r.Patterns))

	var rec func(i int, b Binding) error
	rec = func(i int, b Binding) error {
		if i == len(r.Patterns) {
			m, err := finishMatch(r, assign, b, reg)
			if err != nil {
				return err
			}
			if m == nil {
				return nil
			}
			if id := m.ID(); !seen[id] {
				seen[id] = true
				out = append(out, m)
			}
			return nil
		}
		for _, c := range cands[i] {
			k := c.Key()
			if used[k] {
				continue
			}
			nb := b.Clone()
			if !r.Patterns[i].Match(c, nb) {
				continue
			}
			used[k] = true
			assign[i] = c
			if err := rec(i+1, nb); err != nil {
				return err
			}
			used[k] = false
		}
		return nil
	}
	if err := rec(0, make(Binding)); err != nil {
		return nil, err
	}
	return out, nil
}

// orientations returns the constraint and, for join constraints with an
// invertible operator, its flipped form, so that patterns match either
// writing direction (the normalization discussion of Section 4.2).
func orientations(c *qtree.Constraint) []*qtree.Constraint {
	if !c.IsJoin() {
		return []*qtree.Constraint{c}
	}
	inv, ok := qtree.InverseOp(c.Op)
	if !ok {
		return []*qtree.Constraint{c}
	}
	flipped := qtree.Join(*c.RAttr, inv, c.Attr)
	return []*qtree.Constraint{c, flipped}
}

// quickReject rules out obviously incompatible pattern/constraint pairs
// without building bindings.
func quickReject(p ConstraintPat, c *qtree.Constraint) bool {
	if p.OpVar == "" && p.Op != c.Op {
		return true
	}
	a := p.Attr
	if a.WholeVar == "" {
		if a.ViewVar == "" && a.View != c.Attr.View {
			return true
		}
		if a.NameVar == "" && a.Name != c.Attr.Name {
			return true
		}
		if a.Rel != "" && a.Rel != c.Attr.Rel {
			return true
		}
	}
	if p.RHS.Attr != nil && !c.IsJoin() {
		return true
	}
	if p.RHS.Lit != nil && (c.IsJoin() || c.Val == nil || !p.RHS.Lit.Equal(c.Val)) {
		return true
	}
	return false
}

// finishMatch checks conditions, applies lets, and instantiates the
// emission. It returns (nil, nil) when a condition fails or a let is
// inapplicable.
func finishMatch(r *Rule, assign []*qtree.Constraint, b Binding, reg *Registry) (*Matching, error) {
	for _, cond := range r.Conds {
		fn, err := reg.Cond(cond.Name)
		if err != nil {
			return nil, err
		}
		ok, err := fn(b, cond.Args)
		if err != nil {
			return nil, fmt.Errorf("rules: rule %s condition %s: %w", r.Name, cond, err)
		}
		if !ok {
			return nil, nil
		}
	}
	for _, let := range r.Lets {
		fn, err := reg.Action(let.Func)
		if err != nil {
			return nil, err
		}
		v, err := fn(b, let.Args)
		if err != nil {
			// Inapplicable conversion: the rule provides no mapping here.
			return nil, nil
		}
		if !b.Bind(let.Var, v) {
			return nil, nil
		}
	}
	em, err := r.Emit.Instantiate(b)
	if err != nil {
		return nil, fmt.Errorf("rules: rule %s emission: %w", r.Name, err)
	}
	// Record the matched constraints under their canonical keys.
	set := qtree.NewConstraintSet(assign...)
	return &Matching{Rule: r, Set: set, Binding: b, Emission: em.Normalize()}, nil
}
