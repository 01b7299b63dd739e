// Package qtree defines the constraint-query representation used throughout
// the library: attributes, typed values, constraints, and Boolean query trees
// with alternating ∧/∨ interior nodes (the paper's query-tree model,
// Section 6). It also provides the structural operations the mapping
// algorithms rely on: normalization, Disjunctivize, full DNF conversion, and
// compactness metrics.
package qtree

import (
	"fmt"
	"strings"
)

// Attr identifies an attribute occurrence in a query. An attribute may be
// qualified by a mediator view (with an optional instance index to
// distinguish multiple instances of the same view, as in fac[1].ln), and —
// after mapping — by the source relation the view expands to (written
// fac.aubib.name in the paper).
type Attr struct {
	// View is the mediator view name, e.g. "fac". Empty when the query is
	// over a single implicit view (as in the paper's Section 4.1 examples).
	View string
	// Index distinguishes instances of the same view, e.g. 1 and 2 in
	// [fac[1].ln = fac[2].ln]. Zero means "unspecified": it matches any
	// index during rule matching and prints without brackets.
	Index int
	// Rel is the source relation the attribute belongs to after mapping,
	// e.g. "aubib" in fac.aubib.name. Empty for mediator-side attributes.
	Rel string
	// Name is the attribute name proper, e.g. "ln".
	Name string
}

// A returns an unqualified attribute with the given name. It is the common
// constructor for single-view scenarios.
func A(name string) Attr { return Attr{Name: name} }

// VA returns a view-qualified attribute, e.g. VA("fac", "ln") for fac.ln.
func VA(view, name string) Attr { return Attr{View: view, Name: name} }

// VIA returns a view-qualified attribute with an explicit instance index,
// e.g. VIA("fac", 1, "ln") for fac[1].ln.
func VIA(view string, index int, name string) Attr {
	return Attr{View: view, Index: index, Name: name}
}

// RA returns a relation-qualified attribute in a source vocabulary,
// e.g. RA("fac", "aubib", "name") for fac.aubib.name.
func RA(view, rel, name string) Attr { return Attr{View: view, Rel: rel, Name: name} }

// String renders the attribute in the paper's notation:
// name, view.name, view[i].name, or view.rel.name. An unqualified
// attribute renders as its name, without allocating.
func (a Attr) String() string {
	if a.View == "" && a.Rel == "" {
		return a.Name
	}
	var b strings.Builder
	if a.View != "" {
		b.WriteString(a.View)
		if a.Index != 0 {
			fmt.Fprintf(&b, "[%d]", a.Index)
		}
		b.WriteByte('.')
	}
	if a.Rel != "" {
		b.WriteString(a.Rel)
		b.WriteByte('.')
	}
	b.WriteString(a.Name)
	return b.String()
}

// Key returns a canonical identity string for the attribute. Two attributes
// with the same Key refer to the same attribute occurrence class.
func (a Attr) Key() string { return a.String() }

// Equal reports whether two attributes are identical in all components.
func (a Attr) Equal(b Attr) bool { return a == b }

// SameColumn reports whether two attributes name the same column ignoring
// the instance index. It is used when normalizing join constraints.
func (a Attr) SameColumn(b Attr) bool {
	return a.View == b.View && a.Rel == b.Rel && a.Name == b.Name
}

// WithRel returns a copy of the attribute qualified by source relation rel.
func (a Attr) WithRel(rel string) Attr {
	a.Rel = rel
	return a
}

// IsZero reports whether the attribute is the zero Attr.
func (a Attr) IsZero() bool { return a == Attr{} }
