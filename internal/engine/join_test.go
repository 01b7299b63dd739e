package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/qtree"
	"repro/internal/values"
)

// chainJoin is the reference Join must match: the materialized product of
// rels in order, then Select(glue), then Select(filter).
func chainJoin(rels []*Relation, glue, filter *qtree.Node, ev *Evaluator) (*Relation, error) {
	combined := rels[0]
	for _, r := range rels[1:] {
		combined = Product(combined, r)
	}
	var err error
	if glue != nil {
		if combined, err = combined.Select(glue, ev); err != nil {
			return nil, err
		}
	}
	if filter != nil {
		return combined.Select(filter, ev)
	}
	return combined, nil
}

// checkJoin compares Join with the chain: the same error text, or the same
// name and the same tuples in the same order.
func checkJoin(t *testing.T, label string, rels []*Relation, glue, filter *qtree.Node, ev *Evaluator) {
	t.Helper()
	want, werr := chainJoin(rels, glue, filter, ev)
	got, gerr := Join(rels, glue, filter, ev)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: glue %v filter %v: chain err %v, Join err %v", label, glue, filter, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: glue %v filter %v: error text differs\nchain: %v\nJoin:  %v", label, glue, filter, werr, gerr)
		}
		return
	}
	if got.Name != want.Name {
		t.Fatalf("%s: name %q, chain %q", label, got.Name, want.Name)
	}
	if g, w := renderTuples(got), renderTuples(want); g != w {
		t.Fatalf("%s: glue %v filter %v: tuples differ\nJoin:\n%schain:\n%s", label, glue, filter, g, w)
	}
}

func renderTuples(r *Relation) string {
	var b strings.Builder
	for _, t := range r.Tuples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// joinAttr is attribute name of relation i: key "r<i>.<name>".
func joinAttr(i int, name string) qtree.Attr {
	return qtree.VA("r"+string(rune('0'+i)), name)
}

// joinValue draws a join value: mostly strings (including a case variant
// the override equates), sometimes a number or NaN, which the probe must
// leave to evaluation.
func joinValue(rng *rand.Rand, allStr bool) qtree.Value {
	if allStr || rng.Intn(4) > 0 {
		return values.String([]string{"x", "y", "X", "z"}[rng.Intn(4)])
	}
	return []qtree.Value{values.Int(1), values.Float(1), values.Float(math.NaN())}[rng.Intn(3)]
}

// joinRelations draws 1–3 relations r0, r1, r2. Each tuple may carry the
// join keys k and j (always, when the relation is total), a mixed-kind v
// that makes comparisons fail, and a key s shared between relations, where
// the later relation wins. Relations may be empty or repeat rows.
func joinRelations(rng *rand.Rand) []*Relation {
	rels := make([]*Relation, []int{1, 2, 2, 3}[rng.Intn(4)])
	for i := range rels {
		r := NewRelation("r" + string(rune('0'+i)))
		total, allStr := rng.Intn(4) > 0, rng.Intn(4) > 0
		n := 1 + rng.Intn(5)
		if rng.Intn(8) == 0 {
			n = 0
		}
		for len(r.Tuples) < n {
			if len(r.Tuples) > 0 && rng.Intn(5) == 0 {
				r.Tuples = append(r.Tuples, r.Tuples[rng.Intn(len(r.Tuples))])
				continue
			}
			t := Tuple{}
			for _, name := range []string{"k", "j"} {
				if total || rng.Intn(4) > 0 {
					t.Set(joinAttr(i, name), joinValue(rng, allStr))
				}
			}
			if rng.Intn(2) == 0 {
				t.Set(joinAttr(i, "v"), values.Int(int64(rng.Intn(3))))
			} else if rng.Intn(2) == 0 {
				t.Set(joinAttr(i, "v"), values.String("w"))
			}
			if rng.Intn(3) == 0 {
				t.Set(qtree.A("s"), values.String([]string{"x", "y"}[rng.Intn(2)]))
			}
			r.Tuples = append(r.Tuples, t)
		}
		rels[i] = r
	}
	return rels
}

// joinGlueLeaf draws one glue constraint over n relations: equi-joins
// between an outer relation and the innermost in either orientation, !=,
// a comparison that fails on mixed kinds, joins through the shared key,
// joins between two outer relations, and selections.
func joinGlueLeaf(rng *rand.Rand, n int) *qtree.Node {
	in, out := n-1, 0
	if n > 1 {
		out = rng.Intn(n - 1)
	}
	name := []string{"k", "j"}[rng.Intn(2)]
	var c *qtree.Constraint
	switch rng.Intn(9) {
	case 0, 1, 2:
		c = qtree.Join(joinAttr(out, name), qtree.OpEq, joinAttr(in, name))
	case 3:
		c = qtree.Join(joinAttr(in, name), qtree.OpEq, joinAttr(out, name))
	case 4:
		c = qtree.Join(joinAttr(out, name), qtree.OpNe, joinAttr(in, name))
	case 5:
		c = qtree.Join(joinAttr(out, "v"), qtree.OpLt, joinAttr(in, "v"))
	case 6:
		c = qtree.Join(qtree.A("s"), qtree.OpEq, joinAttr(in, "k"))
	case 7:
		c = qtree.Join(joinAttr(0, name), qtree.OpEq, joinAttr(out, name))
	default:
		c = qtree.Sel(joinAttr(out, name), qtree.OpEq, values.String("x"))
	}
	return qtree.Leaf(c)
}

// joinGlue draws nil, one leaf, or a conjunction of leaves in random
// order, sometimes with a disjunction among them.
func joinGlue(rng *rand.Rand, n int) *qtree.Node {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return joinGlueLeaf(rng, n)
	}
	kids := make([]*qtree.Node, 1+rng.Intn(3))
	for i := range kids {
		kids[i] = joinGlueLeaf(rng, n)
	}
	if rng.Intn(4) == 0 {
		kids = append(kids, qtree.Or(joinGlueLeaf(rng, n), joinGlueLeaf(rng, n)))
	}
	return qtree.And(kids...)
}

// joinFilter draws F: nil, TRUE, or a random tree over selections that
// can fail on missing attributes and mixed kinds.
func joinFilter(rng *rand.Rand, n int, depth int) *qtree.Node {
	if depth == 0 {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return qtree.True()
		}
	}
	if depth >= 2 || rng.Intn(2) == 0 {
		i := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			return qtree.Leaf(qtree.Sel(joinAttr(i, "v"), qtree.OpGt, values.Int(0)))
		case 1:
			return qtree.Leaf(qtree.Sel(joinAttr(i, "ghost"), qtree.OpEq, values.Int(0)))
		case 2:
			return qtree.Leaf(qtree.Sel(qtree.A("s"), qtree.OpNe, values.String("x")))
		default:
			return qtree.Leaf(qtree.Sel(joinAttr(i, "k"), qtree.OpEq, values.String("x")))
		}
	}
	kids := []*qtree.Node{joinFilter(rng, n, depth+1), joinFilter(rng, n, depth+1)}
	if rng.Intn(2) == 0 {
		return qtree.And(kids...)
	}
	return qtree.Or(kids...)
}

// joinEvaluator draws MissingIsFalse and, sometimes, an override on the
// glue's (k, =) that equates strings case-insensitively — an equality the
// hash key does not share.
func joinEvaluator(rng *rand.Rand) *Evaluator {
	ev := NewEvaluator()
	ev.MissingIsFalse = rng.Intn(2) == 0
	if rng.Intn(4) == 0 {
		ev.Override("k", qtree.OpEq, func(tv, cv qtree.Value) (bool, error) {
			a, ok1 := tv.(values.String)
			b, ok2 := cv.(values.String)
			if ok1 && ok2 {
				return strings.EqualFold(string(a), string(b)), nil
			}
			return tv.Equal(cv), nil
		})
	}
	return ev
}

// joinSeed checks one random case; it reports whether Join probed.
func joinSeed(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	rels := joinRelations(rng)
	glue, filter, ev := joinGlue(rng, len(rels)), joinFilter(rng, len(rels), 0), joinEvaluator(rng)
	checkJoin(t, fmt.Sprintf("seed %d", seed), rels, glue, filter, ev)
	for _, r := range rels {
		if r.Len() == 0 {
			return false
		}
	}
	return planProbe(rels, glue, ev) != nil
}

// FuzzJoinEquivalence: for random relations, glues, filters and
// evaluators, Join must return the chain's tuples in the chain's order
// under its name, or fail with its error text.
func FuzzJoinEquivalence(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1001, 31337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for i := int64(0); i < 16; i++ {
			joinSeed(t, seed*16+i)
		}
	})
}

// TestJoinEquivalenceSeeds runs the fuzz body over fixed seeds and checks
// that the probe path is among the cases compared.
func TestJoinEquivalenceSeeds(t *testing.T) {
	const seeds = 4000
	probed := 0
	for s := int64(0); s < seeds; s++ {
		if joinSeed(t, s) {
			probed++
		}
	}
	if probed < seeds/20 {
		t.Errorf("the probe planned in %d of %d cases; the comparison barely covers it", probed, seeds)
	}
}

// TestJoinCases pins the inputs the probe must respect, one per row.
func TestJoinCases(t *testing.T) {
	a := func(i int, name string, v qtree.Value) Tuple {
		tu := Tuple{}
		tu.Set(joinAttr(i, name), v)
		return tu
	}
	str := func(s string) qtree.Value { return values.String(s) }
	eq := func(x, y qtree.Attr) *qtree.Node { return qtree.Leaf(qtree.Join(x, qtree.OpEq, y)) }
	r0k, r1k := joinAttr(0, "k"), joinAttr(1, "k")
	strRels := func() []*Relation {
		return []*Relation{
			NewRelation("r0", a(0, "k", str("x")), a(0, "k", str("y")), a(0, "k", str("x"))),
			NewRelation("r1", a(1, "k", str("y")), a(1, "k", str("X")), a(1, "k", str("x")), a(1, "k", str("x"))),
		}
	}
	override := NewEvaluator()
	override.Override("k", qtree.OpEq, func(tv, cv qtree.Value) (bool, error) {
		return strings.EqualFold(string(tv.(values.String)), string(cv.(values.String))), nil
	})
	missing := strRels()
	missing[1].Tuples = append(missing[1].Tuples, a(1, "j", str("x")))
	shared := strRels()
	for _, r := range shared {
		for _, tu := range r.Tuples {
			tu.Set(qtree.A("s"), str(r.Name))
		}
	}
	mixed := func(v qtree.Value) []*Relation {
		return []*Relation{
			NewRelation("r0", a(0, "k", v), a(0, "k", str("x"))),
			NewRelation("r1", a(1, "k", values.Int(1)), a(1, "k", values.Float(1)), a(1, "k", values.Float(math.NaN()))),
		}
	}
	lenient := NewEvaluator()
	lenient.MissingIsFalse = true
	erring := qtree.Leaf(qtree.Sel(joinAttr(0, "ghost"), qtree.OpEq, values.Int(0)))
	cases := []struct {
		name         string
		rels         []*Relation
		glue, filter *qtree.Node
		ev           *Evaluator
		probed       bool
	}{
		{"probe", strRels(), eq(r0k, r1k), qtree.True(), NewEvaluator(), true},
		{"probe swapped sides", strRels(), eq(r1k, r0k), nil, NewEvaluator(), true},
		{"override on the glue", strRels(), eq(r0k, r1k), nil, override, false},
		{"glue attribute missing", missing, eq(r0k, r1k), nil, NewEvaluator(), false},
		{"glue attribute missing, MissingIsFalse", missing, eq(r0k, r1k), nil, lenient, false},
		{"shared key, later wins", shared, eq(qtree.A("s"), r1k), nil, NewEvaluator(), false},
		{"int join values", mixed(values.Int(1)), eq(r0k, r1k), nil, NewEvaluator(), false},
		{"float join values", mixed(values.Float(1)), eq(r0k, r1k), nil, NewEvaluator(), false},
		{"NaN join values", mixed(values.Float(math.NaN())), eq(r0k, r1k), nil, NewEvaluator(), false},
		{"not-equal glue", strRels(), qtree.Leaf(qtree.Join(r0k, qtree.OpNe, r1k)), nil, NewEvaluator(), false},
		{"nil glue, TRUE filter", strRels(), nil, qtree.True(), NewEvaluator(), false},
		{"erring conjunct before the equi-join", strRels(), qtree.And(erring, eq(r0k, r1k)), nil, NewEvaluator(), false},
		{"erring filter", strRels(), eq(r0k, r1k), erring, NewEvaluator(), true},
		{"empty relation", []*Relation{strRels()[0], NewRelation("r1")}, eq(r0k, r1k), erring, NewEvaluator(), true}, // vacuously; Join returns before planning
		{"one relation", strRels()[:1], qtree.Leaf(qtree.Sel(r0k, qtree.OpEq, str("x"))), nil, NewEvaluator(), false},
		{"three relations", append(strRels(), NewRelation("r2", a(2, "k", str("x")), a(2, "k", str("y")))),
			qtree.And(eq(r0k, joinAttr(2, "k")), eq(r1k, r0k)), nil, NewEvaluator(), true},
	}
	for _, c := range cases {
		checkJoin(t, c.name, c.rels, c.glue, c.filter, c.ev)
		if got := planProbe(c.rels, c.glue, c.ev) != nil; got != c.probed {
			t.Errorf("%s: probe planned = %v, want %v", c.name, got, c.probed)
		}
	}
}
