package engine_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/sources"
	"repro/internal/values"
)

// fmtString is the fmt-based renderer Tuple.String replaced. It stays here
// as the reference: tuple identity (dedup and answer order on every union
// path) must not change by a byte.
func fmtString(t engine.Tuple) string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%s", k, t[k].String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// opaque is a Value kind the engine has no fast path for.
type opaque string

func (o opaque) Kind() string             { return "opaque" }
func (o opaque) String() string           { return "~" + string(o) + "~" }
func (o opaque) Equal(v qtree.Value) bool { p, ok := v.(opaque); return ok && o == p }

func checkRender(t *testing.T, tuple engine.Tuple) {
	t.Helper()
	if got, want := tuple.String(), fmtString(tuple); got != want {
		t.Fatalf("Tuple.String() = %q\nfmt reference = %q", got, want)
	}
}

func TestTupleStringMatchesReference(t *testing.T) {
	for _, tuple := range sources.BookRelation("books", sources.GenBooks(3, 3000)).Tuples {
		checkRender(t, tuple)
	}
	people, papers := sources.GenLibrary(5, 24, 20)
	for _, rel := range []*engine.Relation{sources.T1Relation(people, papers), sources.T2Relation(people)} {
		for _, tuple := range rel.Tuples {
			checkRender(t, tuple)
		}
	}
	checkRender(t, nil)
	checkRender(t, engine.Tuple{})
	// More attributes than the key array holds, and a value longer than
	// the stack buffer: both spill to the heap and must still match.
	wide := engine.Tuple{}
	for i := 0; i < 40; i++ {
		wide[fmt.Sprintf("a%02d", 39-i)] = values.Int(i)
	}
	wide["long"] = values.String(strings.Repeat("x\"y", 700))
	checkRender(t, wide)
}

// fuzzTuple builds a tuple over every values kind from fuzz inputs; mask
// picks which attributes are present so key order and spacing vary.
func fuzzTuple(s, k string, n int64, x, y float64, mask uint16) engine.Tuple {
	all := []struct {
		key string
		val qtree.Value
	}{
		{"s", values.String(s)},
		{"k", values.String(k)},
		{k, values.String(s)},
		{"i", values.Int(n)},
		{"f", values.Float(x)},
		{"g", values.Float(y)},
		{"d", values.Date{Year: int(n % 3000), Month: int(uint64(n)>>12) % 13, Day: int(uint64(n)>>20) % 32}},
		{"r", values.Range{Lo: x, Hi: y}},
		{"p", values.Point{X: y, Y: x}},
		{"t", values.Tuple{values.String(k), values.Int(n), values.Tuple{values.Float(x), values.Date{Year: 1997}}}},
		{"w", values.Word(s)},
		{"pat", values.PatternNear(values.Word(s), values.PatternOr(values.Word(k), values.Word("jdk")))},
		{"o", opaque(k)},
	}
	tuple := engine.Tuple{}
	for i, a := range all {
		if mask&(1<<i) != 0 {
			tuple[a.key] = a.val
		}
	}
	return tuple
}

func FuzzTupleString(f *testing.F) {
	f.Add("Clancy", "ln", int64(1997), 1.5, -2.0, uint16(0xffff))
	// One escaping class per seed, so each one alone leaves the fast path.
	for _, s := range []string{"quo\"te", "back\\slash", "bell\x07", "del\x7f", "naïve", "bad\xffutf8", "\U0001F600"} {
		f.Add(s, s, int64(9)<<20|int64(5)<<12|1997, 0.5, 2.0, uint16(0xffff)) // Date 9/Aug/61
	}
	f.Add("a\"b\\c\x01\x7f é \xff\xfe", "\t", int64(-3), math.Copysign(0, -1), math.NaN(), uint16(0x1fff))
	f.Add("", "", int64(0), math.Inf(1), math.Inf(-1), uint16(0x0fff))
	f.Add("java(near)jdk", "key with space", int64(math.MinInt64), 1e300, 5e-324, uint16(0x1555))
	f.Add(" \U0001F600", "k\"ey", int64(5)<<12, -7.25, 3.0, uint16(0xffff)) // Date May/80: zero day
	f.Fuzz(func(t *testing.T, s, k string, n int64, x, y float64, mask uint16) {
		checkRender(t, fuzzTuple(s, k, n, x, y, mask))
	})
}

// The allocation ceilings pin the mechanisms that make per-tuple work
// cheap, so a later change cannot quietly put the allocator back on the
// selection, residue-filter and merge path.

func TestEvalConstraintAllocs(t *testing.T) {
	ev := engine.NewEvaluator()
	tuple := engine.Tuple{}
	tuple.Set(qtree.A("ln"), values.String("Clancy"))
	tuple.Set(qtree.A("pyear"), values.Int(1997))
	tuple.Set(qtree.A("pmonth"), values.Int(5))
	tuple.Set(qtree.VA("fac", "ln"), values.String("Ullman"))
	tuple.Set(qtree.VA("pub", "ln"), values.String("Ullman"))
	tuple.Set(qtree.VIA("fac", 1, "bib"), values.String("database systems"))
	tuple.Set(qtree.RA("fac", "aubib", "name"), values.String("Ullman, Jeff"))
	cases := []*qtree.Constraint{
		qtree.Sel(qtree.A("ln"), qtree.OpEq, values.String("Clancy")),
		qtree.Sel(qtree.A("pyear"), qtree.OpGe, values.Int(1990)),
		qtree.Sel(qtree.VA("fac", "ln"), qtree.OpEq, values.String("Ullman")),
		qtree.Sel(qtree.VIA("fac", 1, "bib"), qtree.OpContains, values.Word("database")),
		qtree.Sel(qtree.RA("fac", "aubib", "name"), qtree.OpNe, values.String("Knuth, Don")),
		qtree.Join(qtree.VA("fac", "ln"), qtree.OpEq, qtree.VA("pub", "ln")),
		qtree.Join(qtree.VA("pub", "ln"), qtree.OpEq, qtree.VA("fac", "ln")), // normalized with sides swapped
		qtree.Join(qtree.A("pmonth"), qtree.OpLt, qtree.A("pyear")),          // "<" normalizes to ">" swapped
		qtree.Join(qtree.A("pyear"), qtree.OpGe, qtree.A("pmonth")),
	}
	for _, c := range cases {
		ok, err := ev.EvalConstraint(c, tuple)
		if err != nil || !ok {
			t.Fatalf("%s = %v, %v; want true", c, ok, err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = ev.EvalConstraint(c, tuple) }); got != 0 {
			t.Errorf("EvalConstraint(%s) allocates %v times per run, want 0", c, got)
		}
	}
}

func TestContainsAllocs(t *testing.T) {
	var text qtree.Value = values.String("Java Programming with the JDK, 2nd edition")
	consts := []qtree.Value{
		values.Word("jdk"),
		values.PatternAnd(values.Word("Java"), values.Word("jdk")),
		values.PatternOr(values.Word("perl"), values.Word("edition")),
		values.String("Programming"),
	}
	for _, cv := range consts {
		ok, err := engine.DefaultOp(qtree.OpContains, text, cv)
		if err != nil || !ok {
			t.Fatalf("contains %s = %v, %v; want true", cv, ok, err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = engine.DefaultOp(qtree.OpContains, text, cv) }); got != 0 {
			t.Errorf("contains %s (%s) allocates %v times per run, want 0", cv, cv.Kind(), got)
		}
	}
}

func TestTupleStringAllocs(t *testing.T) {
	tuple := sources.GenBooks(1, 1)[0].Tuple()
	if got := testing.AllocsPerRun(100, func() { _ = tuple.String() }); got > 4 {
		t.Errorf("Tuple.String on a book tuple allocates %v times per run, want at most 4", got)
	}
}

func BenchmarkTupleString(b *testing.B) {
	tuple := sources.GenBooks(1, 1)[0].Tuple()
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tuple.String()
		}
	})
	b.Run("fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fmtString(tuple)
		}
	})
}

// TestJoinAllocs: with the library glue, Join's allocations follow the
// answers it merges, not the pairs of T1 × T2 the product path merged.
func TestJoinAllocs(t *testing.T) {
	people, papers := sources.GenLibrary(3, 24, 20)
	rels := []*engine.Relation{sources.T1Relation(people, papers), sources.T2Relation(people)}
	glue, ev := sources.LibraryGlue(), engine.NewEvaluator()
	out, err := engine.Join(rels, glue, qtree.True(), ev)
	if err != nil {
		t.Fatal(err)
	}
	answers := out.Len()
	if answers == 0 {
		t.Fatal("the fixture joins no pairs")
	}
	// A merged library tuple is one map, a handful of allocations; the
	// product path made as many for every one of the 11 520 pairs.
	allocs := testing.AllocsPerRun(20, func() { _, _ = engine.Join(rels, glue, qtree.True(), ev) })
	if limit := 5 * answers; allocs > float64(limit) {
		t.Errorf("Join allocates %v times for %d answers of %d pairs, want at most %d",
			allocs, answers, rels[0].Len()*rels[1].Len(), limit)
	}
}
