package qtree

import (
	"testing"
	"unsafe"
)

// TestConstraintSideKeys checks the sliced accessors against the keys they
// stand in for, for constructor-built constraints (sliced from the cached
// key) and raw literals (computed), including joins whose normalized key
// lists RAttr first.
func TestConstraintSideKeys(t *testing.T) {
	attrs := []Attr{
		A("ln"), A("a"), A("zz"),
		VA("fac", "ln"), VA("pub", "ln"), VIA("fac", 2, "bib"),
		RA("fac", "aubib", "name"), {View: "fac", Index: 1, Rel: "prof", Name: "dept"},
		{Index: 3, Name: "x"},
	}
	ops := []string{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpContains, "~~"}
	check := func(c *Constraint) {
		t.Helper()
		if got, want := c.AttrKey(), c.Attr.Key(); got != want {
			t.Errorf("%s: AttrKey() = %q, want %q", c, got, want)
		}
		wantR, wantV := "", ValueKey(c.Val)
		if c.IsJoin() {
			wantR, wantV = c.RAttr.Key(), ""
		}
		if got := c.RAttrKey(); got != wantR {
			t.Errorf("%s: RAttrKey() = %q, want %q", c, got, wantR)
		}
		if got := c.ValueKey(); got != wantV {
			t.Errorf("%s: ValueKey() = %q, want %q", c, got, wantV)
		}
	}
	for _, l := range attrs {
		for _, op := range ops {
			for _, v := range []Value{tv("x"), tv(""), tv("] ["), nil} {
				check(Sel(l, op, v))
				check(&Constraint{Attr: l, Op: op, Val: v})
			}
			for _, r := range attrs {
				rr := r
				check(Join(l, op, r))
				check(&Constraint{Attr: l, Op: op, RAttr: &rr})
			}
		}
	}
}

// TestConstraintSize pins Constraint's field set. Translation caches keep
// tens of thousands of constraints live, so a new field shows up in the
// live heap; the cached key plus one offset already locate every
// component the hot paths need.
func TestConstraintSize(t *testing.T) {
	var s string
	var v Value
	want := unsafe.Sizeof(Attr{}) + 2*unsafe.Sizeof(s) + unsafe.Sizeof(v) +
		unsafe.Sizeof((*Attr)(nil)) + unsafe.Sizeof(int(0))
	if got := unsafe.Sizeof(Constraint{}); got != want {
		t.Errorf("unsafe.Sizeof(Constraint{}) = %d, want %d: keep the hot-path accessors slicing the cached key", got, want)
	}
}

func TestUnqualifiedAttrStringAllocs(t *testing.T) {
	a := A("publisher")
	if got := testing.AllocsPerRun(100, func() { _ = a.String() }); got != 0 {
		t.Errorf("unqualified Attr.String allocates %v times per run, want 0", got)
	}
}
