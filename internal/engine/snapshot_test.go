package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/qtree"
	"repro/internal/values"
)

// snapAttrs are the attributes of the snapshot fuzzer's relations: an
// integer, a float (NaN, -0 and an Int-valued twin included), a string, a
// date, a slice-backed values.Tuple, and a mixed-family attribute that makes
// comparisons fail. "ghost" is carried by no tuple.
var snapAttrs = []string{"i", "f", "s", "d", "t", "m"}

var snapWords = []string{"alpha beta", "beta", "Gamma delta", "", "delta"}

func snapValue(rng *rand.Rand, attr string) qtree.Value {
	switch attr {
	case "i":
		return values.Int(int64(rng.Intn(5)))
	case "f":
		return []qtree.Value{values.Float(0), values.Float(math.Copysign(0, -1)), values.Float(1.5),
			values.Float(math.NaN()), values.Float(3), values.Int(3)}[rng.Intn(6)]
	case "s":
		return values.String(snapWords[rng.Intn(len(snapWords))])
	case "d":
		return values.Date{Year: 1995 + rng.Intn(2), Month: rng.Intn(3)}
	case "t":
		return values.Tuple{values.String(snapWords[rng.Intn(2)]), values.Int(int64(rng.Intn(2)))}
	default:
		if rng.Intn(2) == 0 {
			return values.Int(int64(rng.Intn(3)))
		}
		return values.String(snapWords[rng.Intn(len(snapWords))])
	}
}

// snapRelation draws up to 40 tuples that may lack any attribute; some rows
// repeat an earlier tuple's map.
func snapRelation(rng *rand.Rand) *Relation {
	r := NewRelation("snap")
	n := rng.Intn(41)
	for len(r.Tuples) < n {
		if len(r.Tuples) > 0 && rng.Intn(6) == 0 {
			r.Tuples = append(r.Tuples, r.Tuples[rng.Intn(len(r.Tuples))])
			continue
		}
		t := Tuple{}
		for _, a := range snapAttrs {
			if rng.Intn(10) < 7 {
				t[a] = snapValue(rng, a)
			}
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// snapLeaf draws a selection on any attribute (ghost included) with any
// operator, an unknown one included, against a constant of any family, or
// a join between two attributes of the tuple.
func snapLeaf(rng *rand.Rand) *qtree.Node {
	attrs := append(snapAttrs[:len(snapAttrs):len(snapAttrs)], "ghost")
	a := qtree.A(attrs[rng.Intn(len(attrs))])
	ops := []string{qtree.OpEq, qtree.OpNe, qtree.OpLt, qtree.OpLe, qtree.OpGt, qtree.OpGe,
		qtree.OpContains, qtree.OpStarts, qtree.OpDuring, "~bogus"}
	op := ops[rng.Intn(len(ops))]
	if rng.Intn(6) == 0 {
		return qtree.Leaf(qtree.Join(a, op, qtree.A(attrs[rng.Intn(len(attrs))])))
	}
	var v qtree.Value
	switch rng.Intn(5) {
	case 0:
		v = values.Word("beta")
	case 1:
		v = values.Date{Year: 1995 + rng.Intn(2), Month: rng.Intn(3)}
	default:
		v = snapValue(rng, snapAttrs[rng.Intn(len(snapAttrs))])
	}
	return qtree.Leaf(qtree.Sel(a, op, v))
}

// snapTyped draws a selection whose operator suits its attribute's family,
// so that more trees select rows than fail; equalities make probes.
func snapTyped(rng *rand.Rand) *qtree.Node {
	a := snapAttrs[rng.Intn(len(snapAttrs))]
	ops := map[string][]string{
		"i": {qtree.OpEq, qtree.OpEq, qtree.OpNe, qtree.OpLt, qtree.OpGe},
		"f": {qtree.OpEq, qtree.OpLe, qtree.OpGt},
		"s": {qtree.OpEq, qtree.OpContains, qtree.OpStarts},
		"d": {qtree.OpEq, qtree.OpDuring},
		"t": {qtree.OpEq, qtree.OpNe},
		"m": {qtree.OpEq, qtree.OpLt},
	}[a]
	return qtree.Leaf(qtree.Sel(qtree.A(a), ops[rng.Intn(len(ops))], snapValue(rng, a)))
}

func snapQuery(rng *rand.Rand, depth int) *qtree.Node {
	if rng.Intn(12) == 0 {
		return qtree.True()
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return snapTyped(rng)
		}
		return snapLeaf(rng)
	}
	if rng.Intn(3) == 0 {
		// A simple conjunction, which an IndexSet may probe.
		kids := []*qtree.Node{snapTyped(rng), snapTyped(rng)}
		if rng.Intn(2) == 0 {
			kids = append(kids, snapLeaf(rng))
		}
		return qtree.And(kids...)
	}
	kids := make([]*qtree.Node, 1+rng.Intn(3))
	for i := range kids {
		kids[i] = snapQuery(rng, depth-1)
	}
	if rng.Intn(2) == 0 {
		return qtree.And(kids...)
	}
	return qtree.Or(kids...)
}

// snapEvaluator draws MissingIsFalse either way and, sometimes, overrides
// that disagree with the default operators: i = compares modulo 2, and
// s contains errors on the empty string.
func snapEvaluator(rng *rand.Rand) *Evaluator {
	ev := NewEvaluator()
	ev.MissingIsFalse = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		ev.Override("i", qtree.OpEq, func(tv, cv qtree.Value) (bool, error) {
			x, ok1 := values.Numeric(tv)
			y, ok2 := values.Numeric(cv)
			return ok1 && ok2 && int64(x)%2 == int64(y)%2, nil
		})
	}
	if rng.Intn(2) == 0 {
		ev.Override("s", qtree.OpContains, func(tv, cv qtree.Value) (bool, error) {
			if s, ok := tv.(values.String); ok && s == "" {
				return false, fmt.Errorf("override: empty text against %s", cv)
			}
			return DefaultOp(qtree.OpContains, tv, cv)
		})
	}
	return ev
}

// sameSelection fails unless the snapshot's rows, errors and tuple maps are
// those of the tuple path.
func sameSelection(t *testing.T, label string, want *Relation, werr error, snap *Snapshot, rows []int32, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: tuple path err %v, snapshot err %v", label, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: error text differs\ntuples:   %v\nsnapshot: %v", label, werr, gerr)
		}
		return
	}
	got := snap.Relation(rows)
	if got.Name != want.Name || (got.Tuples == nil) != (want.Tuples == nil) || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: snapshot %q with %d tuples (nil %v), tuple path %q with %d (nil %v)", label,
			got.Name, len(got.Tuples), got.Tuples == nil, want.Name, len(want.Tuples), want.Tuples == nil)
	}
	for i := range want.Tuples {
		if reflect.ValueOf(got.Tuples[i]).Pointer() != reflect.ValueOf(want.Tuples[i]).Pointer() {
			t.Fatalf("%s: answer %d is %v, tuple path %v", label, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// FuzzSnapshotSelect pins compiled selection to the tuple path: for random
// relations, evaluators and trees, Snapshot.Select matches Select without
// an IndexSet and SelectIndexed with one, and Snapshot.Filter over the
// selected rows matches Select over their tuples: rows, order, tuple maps
// and error text.
func FuzzSnapshotSelect(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1001, 31337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		r := snapRelation(rng)
		snap := NewSnapshot(r)
		ix := BuildIndexes(r, snapAttrs[:rng.Intn(len(snapAttrs)+1)]...)
		for i := 0; i < 16; i++ {
			q, ev := snapQuery(rng, 3), snapEvaluator(rng)
			label := fmt.Sprintf("seed %d q=%s missing-is-false=%v", seed, q, ev.MissingIsFalse)

			want, werr := r.Select(q, ev)
			rows, ok, gerr := snap.Select(nil, q, ev, nil)
			if !ok {
				t.Fatalf("%s: scan declined", label)
			}
			sameSelection(t, label+" scan", want, werr, snap, rows, gerr)

			want, werr = r.SelectIndexed(q, ev, ix)
			rows, ok, gerr = snap.Select(nil, q, ev, ix)
			if !ok {
				t.Fatalf("%s: indexed select declined its own relation's bucket", label)
			}
			sameSelection(t, label+" indexed", want, werr, snap, rows, gerr)
			if werr != nil {
				continue
			}

			fq, fev := snapQuery(rng, 2), snapEvaluator(rng)
			flabel := fmt.Sprintf("%s filter=%s missing-is-false=%v", label, fq, fev.MissingIsFalse)
			want, werr = want.Select(fq, fev)
			rows, gerr = snap.Filter(rows, fq, fev)
			sameSelection(t, flabel, want, werr, snap, rows, gerr)
		}
	})
}

// TestSnapshotDeclinesForeignBucket: a probed bucket holding a tuple map
// that the snapshot's relation does not hold sends the selection back to
// the tuple path, while a scan never declines.
func TestSnapshotDeclinesForeignBucket(t *testing.T) {
	r := NewRelation("r", tup("a", values.Int(1)), tup("a", values.Int(2)))
	clone := NewRelation("r", r.Tuples[0].Clone(), r.Tuples[1])
	snap := NewSnapshot(r)
	q := qtree.Leaf(qtree.Sel(qtree.A("a"), qtree.OpEq, values.Int(1)))
	ev := NewEvaluator()
	if _, ok, err := snap.Select(nil, q, ev, BuildIndexes(clone, "a")); ok || err != nil {
		t.Fatalf("foreign bucket: ok %v err %v, want a decline", ok, err)
	}
	rows, ok, err := snap.Select(nil, qtree.Leaf(qtree.Sel(qtree.A("a"), qtree.OpEq, values.Int(2))), ev, BuildIndexes(clone, "a"))
	if !ok || err != nil || len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("bucket of held tuples: rows %v ok %v err %v, want [1]", rows, ok, err)
	}
	if rows, ok, err := snap.Select(nil, q, ev, nil); !ok || err != nil || len(rows) != 1 || rows[0] != 0 {
		t.Fatalf("scan: rows %v ok %v err %v, want [0]", rows, ok, err)
	}
}

// TestSnapshotDictionary: the dictionary shares one entry among identical
// values, within a column and across columns, keeps apart values that
// compare equal but are not identical (-0 and +0, an Int and a Float of one
// number), and gives every slice-backed values.Tuple, which cannot key a
// map, an entry of its own.
func TestSnapshotDictionary(t *testing.T) {
	negZero := values.Float(math.Copysign(0, -1))
	r := NewRelation("r",
		tup("x", values.Float(0), "t", values.Tuple{values.Int(1)}, "s", values.String("a")),
		tup("x", negZero, "t", values.Tuple{values.Int(1)}, "u", values.String("a")),
		tup("x", values.Float(0)),
		tup("x", values.Int(0)),
		tup("y", values.String("only")),
	)
	snap := NewSnapshot(r)
	x, tc := snap.cols["x"], snap.cols["t"]
	if x[0] != x[2] || x[0] == x[1] || x[0] == x[3] || x[1] == x[3] || x[4] != 0 {
		t.Errorf("x entries %v: want rows 0 and 2 to share an entry, rows 1 and 3 entries of their own, row 4 none", x)
	}
	if f, ok := snap.dict[x[1]-1].(values.Float); !ok || !math.Signbit(float64(f)) {
		t.Errorf("row 1's x reads %v, want -0", snap.dict[x[1]-1])
	}
	if tc[0] == 0 || tc[1] == 0 || tc[0] == tc[1] || tc[2] != 0 {
		t.Errorf("t entries %v: want two entries for two slices", tc)
	}
	if snap.cols["s"][0] != snap.cols["u"][1] {
		t.Errorf("s and u hold one string under codes %d and %d", snap.cols["s"][0], snap.cols["u"][1])
	}
	if len(snap.dict) != 7 {
		t.Errorf("dictionary %v, want 7 entries", snap.dict)
	}
}
