package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/qtree"
	"repro/internal/values"
)

// Snapshot is an immutable column-major copy of a relation, for selecting
// by row instead of by tuple: row i is the relation's i-th tuple. The
// snapshot keeps one dictionary of the distinct values its tuples hold, and
// each attribute carried by some tuple has a column holding, per row, one
// plus the dictionary index of the row's value, or 0 when the row lacks the
// attribute. So a column costs 4 bytes a row, and a value held by several
// rows or attributes costs one 16-byte dictionary entry. A map from each
// tuple map to its first row finds the rows of an IndexSet's bucket.
//
// A selection compiles its query once per call: each leaf's column,
// override and operator are resolved before the first row is read, and a
// selection leaf evaluates each distinct value at most once per call, so
// overrides must be pure functions of their operands (every override in
// this repository is). Rows, order and errors are those of Select and
// SelectIndexed over the relation. A Snapshot is safe for concurrent use;
// the relation's tuples must not be mutated, or the snapshot goes stale.
type Snapshot struct {
	rel  *Relation
	rows map[unsafe.Pointer]int32 // the first row holding each tuple map
	cols map[string][]uint32
	dict []qtree.Value

	compiled, declined atomic.Uint64
}

// SnapshotStats is a snapshot of a Snapshot's cumulative counters.
type SnapshotStats struct {
	// Compiled counts the Select and Filter calls evaluated on the
	// snapshot's rows.
	Compiled uint64
	// Declined counts the Select calls that sent their caller to the tuple
	// path.
	Declined uint64
}

// Stats returns the snapshot's cumulative counters.
func (s *Snapshot) Stats() SnapshotStats {
	return SnapshotStats{Compiled: s.compiled.Load(), Declined: s.declined.Load()}
}

// NewSnapshot returns a column snapshot of r.
func NewSnapshot(r *Relation) *Snapshot {
	s := &Snapshot{rel: r, rows: make(map[unsafe.Pointer]int32, len(r.Tuples)), cols: make(map[string][]uint32)}
	var dict []qtree.Value
	entries := make(map[any]uint32) // column entry by dictKey
	for i, t := range r.Tuples {
		id := tupleID(t)
		if _, dup := s.rows[id]; !dup {
			s.rows[id] = int32(i)
		}
		for k, v := range t {
			col := s.cols[k]
			if col == nil {
				col = make([]uint32, len(r.Tuples))
				s.cols[k] = col
			}
			key, shared := dictKey(v)
			if shared {
				if code, ok := entries[key]; ok {
					col[i] = code
					continue
				}
			}
			dict = append(dict, v)
			col[i] = uint32(len(dict))
			if shared {
				entries[key] = col[i]
			}
		}
	}
	s.dict = slices.Clone(dict)
	return s
}

// floatKey keys a Float by its bits, so -0 and +0, which compare equal,
// keep entries of their own, and every NaN finds its own bits again.
type floatKey uint64

// dictKey returns the key under which v shares a dictionary entry with the
// values that are identical to it, and false when v gets an entry of its
// own: a slice-backed values.Tuple cannot key a map, and values of other
// kinds are rare in tuples.
func dictKey(v qtree.Value) (any, bool) {
	switch x := v.(type) {
	case values.String, values.Int, values.Date:
		return v, true
	case values.Float:
		return floatKey(math.Float64bits(float64(x))), true
	}
	return nil, false
}

// Select appends to dst the rows that q selects, in order, as the
// snapshot's relation's Select(q, ev) does when ix is nil and as its
// SelectIndexed(q, ev, ix) does otherwise: the same candidate tuples in the
// same order, so the same rows, order and error. ok is false, with dst
// returned as it came, when the probed bucket holds a tuple map that the
// relation does not; the caller then selects on the tuple path.
func (s *Snapshot) Select(dst []int32, q *qtree.Node, ev *Evaluator, ix IndexSet) (rows []int32, ok bool, err error) {
	var bucket []Tuple
	probed := false
	if ix != nil {
		q = q.Normalize()
		bucket, probed = probeBucket(q, ev, ix)
	}
	rows = dst
	if probed {
		for _, t := range bucket {
			row, held := s.rows[tupleID(t)]
			if !held {
				s.declined.Add(1)
				return dst, false, nil
			}
			rows = append(rows, row)
		}
	}
	s.compiled.Add(1)
	p := s.compile(q, ev)
	defer p.release()
	if probed {
		kept, err := p.filter(rows[len(dst):])
		if err != nil {
			return dst, true, selectErr(s.rel.Name, err)
		}
		return rows[:len(dst)+len(kept)], true, nil
	}
	for row := range s.rel.Tuples {
		ok, err := p.eval(0, int32(row))
		if err != nil {
			return dst, true, selectErr(s.rel.Name, err)
		}
		if ok {
			rows = append(rows, int32(row))
		}
	}
	return rows, true, nil
}

// Filter keeps the rows that satisfy q, in order, as Select over their
// tuples would: it fails on the first row whose evaluation errors. It
// filters rows in place.
func (s *Snapshot) Filter(rows []int32, q *qtree.Node, ev *Evaluator) ([]int32, error) {
	s.compiled.Add(1)
	p := s.compile(q, ev)
	defer p.release()
	kept, err := p.filter(rows)
	if err != nil {
		return rows[:0], selectErr(s.rel.Name, err)
	}
	return kept, nil
}

// Relation returns the relation of rows' tuples, named as the snapshot's
// relation: the very tuple maps, with nil Tuples when rows is empty, as
// Select returns them.
func (s *Snapshot) Relation(rows []int32) *Relation {
	out := &Relation{Name: s.rel.Name}
	if len(rows) > 0 {
		out.Tuples = make([]Tuple, len(rows))
		for i, row := range rows {
			out.Tuples[i] = s.rel.Tuples[row]
		}
	}
	return out
}

// program is a query compiled against a snapshot for one selection: its
// nodes in preorder, each interior node's children following it, and the
// memo space of its selection leaves. Programs are pooled, so a selection
// in steady state allocates only its result.
type program struct {
	ev    *Evaluator
	dict  []qtree.Value
	nodes []pnode
	memo  []uint8
}

var programs = sync.Pool{New: func() any { return new(program) }}

type pnode struct {
	kind qtree.NodeKind
	end  int32 // index past this node's subtree
	c    *qtree.Constraint
	fn   OpFunc
	// l and r are the columns of c's attribute and, for a join constraint,
	// of its right attribute; nil when no row carries the attribute.
	l, r []uint32
	// memo holds a selection leaf's outcome by column entry: memoUnset
	// until a row with that value reaches the leaf.
	memo []uint8
}

const (
	memoUnset uint8 = iota
	memoFalse
	memoTrue
)

// compile resolves q against the snapshot's columns and ev's operators.
// The caller releases the program when the selection is done.
func (s *Snapshot) compile(q *qtree.Node, ev *Evaluator) *program {
	p := programs.Get().(*program)
	p.ev, p.dict, p.nodes = ev, s.dict, p.nodes[:0]
	d := len(s.dict) + 1 // entry 0, a missing attribute, is never memoized
	n := s.add(p, q) * d
	p.memo = slices.Grow(p.memo[:0], n)[:n]
	clear(p.memo)
	memo := p.memo
	for i := range p.nodes {
		if l := &p.nodes[i]; l.kind == qtree.KindLeaf && !l.c.IsJoin() && l.l != nil {
			l.memo, memo = memo[:d:d], memo[d:]
		}
	}
	return p
}

// release returns p to the pool, dropping its references to the query and
// the snapshot.
func (p *program) release() {
	clear(p.nodes)
	p.ev, p.dict = nil, nil
	programs.Put(p)
}

// add appends q's subtree to p and returns the number of its selection
// leaves that need a memo. The children of a node of unknown kind are not
// compiled: evaluation fails at the node, as evalRows does.
func (s *Snapshot) add(p *program, q *qtree.Node) int {
	i := len(p.nodes)
	p.nodes = append(p.nodes, pnode{kind: q.Kind})
	memos := 0
	switch q.Kind {
	case qtree.KindLeaf:
		n := &p.nodes[i]
		n.c, n.fn, n.l = q.C, p.ev.op(q.C), s.cols[q.C.AttrKey()]
		if q.C.IsJoin() {
			n.r = s.cols[q.C.RAttrKey()]
		} else if n.l != nil {
			memos = 1
		}
	case qtree.KindAnd, qtree.KindOr:
		for _, k := range q.Kids {
			memos += s.add(p, k)
		}
	}
	p.nodes[i].end = int32(len(p.nodes))
	return memos
}

// filter keeps, in place and in order, the rows that satisfy the program,
// stopping at the first row whose evaluation errors.
func (p *program) filter(rows []int32) ([]int32, error) {
	kept := rows[:0]
	for _, row := range rows {
		ok, err := p.eval(0, row)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// eval evaluates node i's subtree on row with evalRows's short-circuits:
// And stops at the first false or erroring child, Or at the first true or
// erroring one.
func (p *program) eval(i int32, row int32) (bool, error) {
	n := &p.nodes[i]
	switch n.kind {
	case qtree.KindTrue:
		return true, nil
	case qtree.KindLeaf:
		return p.leaf(n, row)
	case qtree.KindAnd:
		for k := i + 1; k < n.end; k = p.nodes[k].end {
			ok, err := p.eval(k, row)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case qtree.KindOr:
		for k := i + 1; k < n.end; k = p.nodes[k].end {
			ok, err := p.eval(k, row)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("engine: invalid node kind %v", n.kind)
	}
}

// leaf evaluates a constraint on row through Evaluator.leaf, consulting
// and filling the memo for selection constraints.
func (p *program) leaf(n *pnode, row int32) (bool, error) {
	var e uint32
	if n.l != nil {
		e = n.l[row]
	}
	if n.memo != nil && e != 0 {
		if m := n.memo[e]; m != memoUnset {
			return m == memoTrue, nil
		}
		ok, err := p.ev.leaf(n.c, n.fn, p.dict[e-1], true, nil, false)
		if err == nil {
			n.memo[e] = memoFalse
			if ok {
				n.memo[e] = memoTrue
			}
		}
		return ok, err
	}
	var lv, rv qtree.Value
	if e != 0 {
		lv = p.dict[e-1]
	}
	rok := false
	if n.r != nil {
		if re := n.r[row]; re != 0 {
			rv, rok = p.dict[re-1], true
		}
	}
	return p.ev.leaf(n.c, n.fn, lv, e != 0, rv, rok)
}
