package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/qtree"
	"repro/internal/values"
)

// family classifies values into the engine's comparison families (see
// Compare): numbers, strings, dates, and everything else. Probing and
// error-safety analysis reason per family.
type family uint8

const (
	famOther family = iota
	famNum
	famStr
	famDate
	numFamilies
)

func familyOf(v qtree.Value) family {
	if _, ok := values.Numeric(v); ok {
		return famNum
	}
	switch v.(type) {
	case values.String:
		return famStr
	case values.Date:
		return famDate
	}
	return famOther
}

// AttrStats summarizes one attribute's value distribution, collected while
// building an Access. The planner ranks probes by exact index counts; these
// statistics cost residual predicates that have no index support.
type AttrStats struct {
	// Count is the number of tuples carrying the attribute.
	Count int
	// Distinct is the number of distinct values under the canonical value
	// identity (qtree.ValueKey).
	Distinct int
	// BucketHist is a log2 histogram of equality-bucket sizes:
	// BucketHist[i] counts distinct values occurring in [2^i, 2^(i+1))
	// tuples (sizes beyond the last bin land in it).
	BucketHist [16]int
	// MaxBucket is the largest equality-bucket size.
	MaxBucket int
}

// attrAccess bundles one attribute's indexes and statistics. Positions are
// indices into the relation's tuple slice; every position list is ascending,
// which is what lets probe results replay the scan path's emission order.
type attrAccess struct {
	stats AttrStats
	fams  [numFamilies]int
	fam   family // uniform family of all carried values; famOther when mixed or exotic
	// eq maps canonical value keys to ascending positions (hash index).
	eq map[string][]int32
	// sorted orders the carrying positions by value, ties by position; built
	// only for a uniform comparable family. Backs <,<=,>,>= range probes.
	sorted []int32
	// lex orders string positions by lowercased raw value (ties by
	// position) for case-insensitive prefix probes; lowered is aligned.
	lex     []int32
	lowered []string
	// tokens maps each word token of string values to ascending positions
	// (inverted token index for contains probes).
	tokens map[string][]int32
}

// uniform reports the single comparable family all carried values share,
// or famOther when the attribute is empty, mixed, or not comparable.
func (aa *attrAccess) uniform() family { return aa.fam }

// AccessStats is a snapshot of an Access's cumulative execution counters.
type AccessStats struct {
	// Probes counts index probes executed (one per planned disjunct per
	// selection).
	Probes uint64
	// Fallbacks counts selections answered by a full scan because no sound
	// probe existed.
	Fallbacks uint64
	// Scanned counts tuples evaluated: probe candidates on indexed
	// selections, the whole relation on fallbacks.
	Scanned uint64
}

// Access is the cost-based access-path layer over one immutable relation
// snapshot: a hash index for equality, sorted-position arrays for range and
// prefix probes, an inverted token index for contains-word probes, and
// per-attribute statistics — all position-based, so indexed execution can
// reproduce the scan path's tuple order byte-for-byte. Build once with
// BuildAccess; safe for concurrent use afterwards.
type Access struct {
	rel   *Relation
	attrs map[string]*attrAccess

	probes    atomic.Uint64
	fallbacks atomic.Uint64
	scanned   atomic.Uint64
}

// BuildAccess indexes relation r. With no explicit attrs every attribute
// appearing in the relation is indexed; otherwise only the named ones (by
// tuple key, i.e. qtree.Attr.Key()). The relation must not be mutated while
// the Access is live.
func BuildAccess(r *Relation, attrs ...string) *Access {
	var want map[string]bool
	if len(attrs) > 0 {
		want = make(map[string]bool, len(attrs))
		for _, a := range attrs {
			want[a] = true
		}
	}
	a := &Access{rel: r, attrs: make(map[string]*attrAccess)}
	for pos, t := range r.Tuples {
		for k, v := range t {
			if want != nil && !want[k] {
				continue
			}
			aa := a.attrs[k]
			if aa == nil {
				aa = &attrAccess{eq: make(map[string][]int32)}
				a.attrs[k] = aa
			}
			aa.stats.Count++
			aa.fams[familyOf(v)]++
			key := qtree.ValueKey(v)
			aa.eq[key] = append(aa.eq[key], int32(pos))
		}
	}
	for k, aa := range a.attrs {
		aa.finish(r, k)
	}
	return a
}

// finish derives the sorted/prefix/token structures and statistics once the
// position buckets are collected.
func (aa *attrAccess) finish(r *Relation, key string) {
	aa.stats.Distinct = len(aa.eq)
	for _, bucket := range aa.eq {
		n := len(bucket)
		if n > aa.stats.MaxBucket {
			aa.stats.MaxBucket = n
		}
		bin := 0
		for s := n; s > 1 && bin < len(aa.stats.BucketHist)-1; s >>= 1 {
			bin++
		}
		aa.stats.BucketHist[bin]++
	}
	aa.fam = famOther
	for f := famNum; f < numFamilies; f++ {
		if aa.fams[f] == aa.stats.Count && aa.stats.Count > 0 {
			aa.fam = f
		}
	}
	if aa.fam == famOther {
		return
	}
	aa.sorted = make([]int32, 0, aa.stats.Count)
	for _, bucket := range aa.eq {
		aa.sorted = append(aa.sorted, bucket...)
	}
	val := func(pos int32) qtree.Value { return r.Tuples[pos][key] }
	sort.Slice(aa.sorted, func(i, j int) bool {
		cmp, err := Compare(val(aa.sorted[i]), val(aa.sorted[j]))
		if err != nil || cmp == 0 {
			return aa.sorted[i] < aa.sorted[j]
		}
		return cmp < 0
	})
	if aa.fam != famStr {
		return
	}
	aa.lex = make([]int32, len(aa.sorted))
	copy(aa.lex, aa.sorted)
	aa.lowered = make([]string, len(aa.lex))
	low := make(map[int32]string, len(aa.lex))
	for _, pos := range aa.lex {
		s, _ := val(pos).(values.String)
		low[pos] = strings.ToLower(s.Raw())
	}
	sort.Slice(aa.lex, func(i, j int) bool {
		li, lj := low[aa.lex[i]], low[aa.lex[j]]
		if li != lj {
			return li < lj
		}
		return aa.lex[i] < aa.lex[j]
	})
	for i, pos := range aa.lex {
		aa.lowered[i] = low[pos]
	}
	aa.tokens = buildTokens(r, key)
}

// buildTokens builds the inverted token index for a uniformly-string
// attribute: token → ascending positions, deduplicated per tuple.
func buildTokens(r *Relation, key string) map[string][]int32 {
	tokens := make(map[string][]int32)
	for pos, t := range r.Tuples {
		v, ok := t[key]
		if !ok {
			continue
		}
		s, ok := v.(values.String)
		if !ok {
			continue
		}
		seen := map[string]bool{}
		for _, tok := range values.Tokenize(s.Raw()) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			tokens[tok] = append(tokens[tok], int32(pos))
		}
	}
	return tokens
}

// Relation returns the relation snapshot the Access was built over.
func (a *Access) Relation() *Relation { return a.rel }

// Stats returns a snapshot of the cumulative execution counters.
func (a *Access) Stats() AccessStats {
	return AccessStats{
		Probes:    a.probes.Load(),
		Fallbacks: a.fallbacks.Load(),
		Scanned:   a.scanned.Load(),
	}
}

// AttrStats returns the build-time statistics for an attribute (by tuple
// key), and whether the attribute is indexed.
func (a *Access) AttrStats(attr string) (AttrStats, bool) {
	aa, ok := a.attrs[attr]
	if !ok {
		return AttrStats{}, false
	}
	return aa.stats, true
}

// probeKind discriminates the access paths a disjunct can take.
type probeKind uint8

const (
	probeEq     probeKind = iota // hash-index equality bucket
	probeRange                   // sorted-array range slice
	probePrefix                  // lowercased prefix slice
	probeToken                   // inverted-index postings for a word
	probeEmpty                   // provably empty (attr carried by no tuple)
)

func (k probeKind) String() string {
	switch k {
	case probeEq:
		return "eq"
	case probeRange:
		return "rng"
	case probePrefix:
		return "pre"
	case probeToken:
		return "tok"
	case probeEmpty:
		return "nil"
	}
	return "?"
}

// probe is one chosen access path: an exactly-counted candidate set for one
// constraint of a disjunct. exact means the candidates are precisely the
// constraint's matches (the constraint is dropped from the residual);
// otherwise they are a superset and the constraint is re-evaluated.
type probe struct {
	kind  probeKind
	attr  string
	count int
	exact bool
	c     *qtree.Constraint

	bucket   []int32 // probeEq: ascending positions
	postings []int32 // probeToken: ascending positions
	aa       *attrAccess
	lo, hi   int // probeRange/probePrefix: subrange of aa.sorted / aa.lex
	useLex   bool
}

// disjunctPlan is one disjunct's execution recipe: probe the candidates,
// then evaluate the residual conjuncts cheapest-first.
type disjunctPlan struct {
	probe    probe
	residual []*qtree.Constraint
}

// AccessPlan is a planned execution of one query over one Access. A plan
// either probes (every disjunct has a sound, exactly-counted access path) or
// falls back to the full scan; either way SelectAccess returns the matching
// tuples in ascending position order, reproducing Relation.Select's order.
type AccessPlan struct {
	acc       *Access
	orig      *qtree.Node
	ev        *Evaluator
	probed    bool
	disjuncts []disjunctPlan
	desc      string
}

// Probed reports whether the plan uses index probes; false means full scan.
func (p *AccessPlan) Probed() bool { return p.probed }

// Describe renders the chosen access path, one probe per disjunct —
// e.g. "eq(author):3+tok(subject):17" — or "scan" for the fallback.
func (p *AccessPlan) Describe() string { return p.desc }

// PlanQuery plans q for execution over the Access. Probing requires every
// top-level disjunct of the normalized query to be a simple conjunction with
// (a) at least one probe-capable constraint and (b) no conjunct whose
// evaluation could error on any tuple of this relation (missing attributes
// under strict evaluation, cross-family comparisons, non-string pattern
// operands, unknown operators). Constraints whose (attribute, operator) pair
// carries an Evaluator override never probe — their semantics are not value
// identity — but may appear in residuals. When probing is unsound anywhere,
// the whole query falls back to the scan path, keeping error behavior
// byte-identical to Relation.Select.
func (a *Access) PlanQuery(q *qtree.Node, ev *Evaluator) *AccessPlan {
	p := &AccessPlan{acc: a, orig: q, ev: ev, desc: "scan"}
	qn := q.Normalize()
	if qn.Kind == qtree.KindTrue {
		return p
	}
	djs, ok := qn.DisjunctConjuncts()
	if !ok || len(djs) == 0 {
		return p
	}
	plans := make([]disjunctPlan, 0, len(djs))
	var desc strings.Builder
	for _, conjs := range djs {
		dp, ok := a.planDisjunct(conjs, ev)
		if !ok {
			return p
		}
		plans = append(plans, dp)
		if desc.Len() > 0 {
			desc.WriteByte('+')
		}
		fmt.Fprintf(&desc, "%s(%s):%d", dp.probe.kind, dp.probe.attr, dp.probe.count)
	}
	p.probed = true
	p.disjuncts = plans
	p.desc = desc.String()
	return p
}

// planDisjunct picks the cheapest sound probe for one conjunct list and
// orders the residual cheapest-predicate-first. ok=false forces the whole
// query to the scan path.
func (a *Access) planDisjunct(conjs []*qtree.Constraint, ev *Evaluator) (disjunctPlan, bool) {
	if len(conjs) == 0 {
		// A True disjunct admits every tuple; scanning is the access path.
		return disjunctPlan{}, false
	}
	for _, c := range conjs {
		if !a.errorSafe(c, ev) {
			return disjunctPlan{}, false
		}
	}
	best, found := probe{}, false
	for _, c := range conjs {
		pr, ok := a.probeFor(c, ev)
		if !ok {
			continue
		}
		if !found || pr.count < best.count {
			best, found = pr, true
		}
	}
	if !found {
		return disjunctPlan{}, false
	}
	residual := make([]*qtree.Constraint, 0, len(conjs))
	for _, c := range conjs {
		if best.exact && c == best.c {
			continue
		}
		residual = append(residual, c)
	}
	sort.SliceStable(residual, func(i, j int) bool {
		return a.estimate(residual[i], ev) < a.estimate(residual[j], ev)
	})
	return disjunctPlan{probe: best, residual: residual}, true
}

// presentSafe reports whether evaluating a constraint on the attribute
// keyed attrKey can never trip the strict missing-attribute error: either
// evaluation treats absence as false, or every tuple carries the attribute.
func (a *Access) presentSafe(attrKey string, ev *Evaluator) bool {
	if ev.MissingIsFalse {
		return true
	}
	aa := a.attrs[attrKey]
	return aa != nil && aa.stats.Count == len(a.rel.Tuples)
}

// carried returns the index bundle of the attribute keyed attrKey and
// whether any tuple carries it. A nil bundle with ok=false means the
// attribute never occurs: every default-semantics constraint on it is
// vacuously error-free on values.
func (a *Access) carried(attrKey string) (*attrAccess, bool) {
	aa := a.attrs[attrKey]
	if aa == nil || aa.stats.Count == 0 {
		return nil, false
	}
	return aa, true
}

// errorSafe reports whether evaluating c can never error on any tuple of
// this relation. Probing skips tuples and reorders residuals, both of which
// change *which* evaluations run; requiring every conjunct of a probed
// disjunct to be incapable of erroring makes the indexed path's behavior —
// including error behavior — identical to the scan's.
func (a *Access) errorSafe(c *qtree.Constraint, ev *Evaluator) bool {
	if !a.presentSafe(c.AttrKey(), ev) {
		return false
	}
	if c.IsJoin() && !a.presentSafe(c.RAttrKey(), ev) {
		return false
	}
	if ev.hasOverride(c.Attr.Name, c.Op) {
		// Override semantics are the source's own; both paths run the same
		// override on the same tuples it can match, so its errors (if any)
		// surface identically. Treat as total.
		return true
	}
	laa, lok := a.carried(c.AttrKey())
	if !lok {
		return true // never evaluated on a value
	}
	var rfam family
	rUniform := true
	if c.IsJoin() {
		raa, rok := a.carried(c.RAttrKey())
		if !rok {
			return true
		}
		rfam = raa.uniform()
		rUniform = rfam != famOther
	} else if c.Val != nil {
		rfam = familyOf(c.Val)
	} else {
		return false
	}
	switch c.Op {
	case qtree.OpEq, qtree.OpNe:
		return true // Equal is total
	case qtree.OpLt, qtree.OpLe, qtree.OpGt, qtree.OpGe:
		f := laa.uniform()
		return f != famOther && rUniform && f == rfam
	case qtree.OpStarts:
		return laa.uniform() == famStr && rUniform && rfam == famStr
	case qtree.OpContains:
		if laa.uniform() != famStr {
			return false
		}
		if c.IsJoin() {
			return rfam == famStr
		}
		switch c.Val.(type) {
		case values.String, *values.Pattern:
			return true
		}
		return false
	case qtree.OpDuring:
		return laa.uniform() == famDate && rUniform && rfam == famDate
	default:
		return false // unknown operator errors on every tuple
	}
}

// probeFor derives an exactly-counted candidate probe for c, when one is
// sound: equality via the hash index, ranges via the sorted array, starts
// via the lowercased prefix order, contains via the rarest required word's
// postings. Overridden (attribute, operator) pairs never probe.
func (a *Access) probeFor(c *qtree.Constraint, ev *Evaluator) (probe, bool) {
	if c.IsJoin() || c.Val == nil || ev.hasOverride(c.Attr.Name, c.Op) {
		return probe{}, false
	}
	attrKey := c.AttrKey()
	aa, ok := a.carried(attrKey)
	if !ok {
		// No tuple carries the attribute: under MissingIsFalse (guaranteed
		// by errorSafe) the constraint is false everywhere.
		return probe{kind: probeEmpty, attr: attrKey, exact: true, c: c}, true
	}
	switch c.Op {
	case qtree.OpEq:
		// The hash bucket is keyed by canonical value identity, which
		// coincides with Value.Equal within the num/str/date families;
		// exotic kinds (patterns, ranges) don't carry that guarantee.
		if aa.fams[famOther] > 0 || familyOf(c.Val) == famOther {
			return probe{}, false
		}
		bucket := aa.eq[c.ValueKey()]
		return probe{kind: probeEq, attr: attrKey, count: len(bucket), exact: true, c: c, bucket: bucket}, true
	case qtree.OpLt, qtree.OpLe, qtree.OpGt, qtree.OpGe:
		f := aa.uniform()
		if f == famOther || f != familyOf(c.Val) || len(aa.sorted) == 0 {
			return probe{}, false
		}
		lo, hi := aa.rangeBounds(a.rel, attrKey, c.Op, c.Val)
		return probe{kind: probeRange, attr: attrKey, count: hi - lo, exact: true, c: c, aa: aa, lo: lo, hi: hi}, true
	case qtree.OpStarts:
		if aa.uniform() != famStr {
			return probe{}, false
		}
		s, ok := c.Val.(values.String)
		if !ok {
			return probe{}, false
		}
		prefix := strings.ToLower(s.Raw())
		lo := sort.Search(len(aa.lowered), func(i int) bool { return aa.lowered[i] >= prefix })
		hi := lo + sort.Search(len(aa.lowered)-lo, func(i int) bool {
			return !strings.HasPrefix(aa.lowered[lo+i], prefix)
		})
		return probe{kind: probePrefix, attr: attrKey, count: hi - lo, exact: true, c: c, aa: aa, lo: lo, hi: hi, useLex: true}, true
	case qtree.OpContains:
		if aa.uniform() != famStr {
			return probe{}, false
		}
		words, exact := requiredWords(c.Val)
		if len(words) == 0 {
			return probe{}, false
		}
		best, bestLen := "", -1
		for _, w := range words {
			if n := len(aa.tokens[w]); bestLen < 0 || n < bestLen {
				best, bestLen = w, n
			}
		}
		postings := aa.tokens[best]
		return probe{kind: probeToken, attr: attrKey, count: len(postings), exact: exact && len(words) == 1, c: c, postings: postings}, true
	case qtree.OpDuring:
		if aa.uniform() != famDate {
			return probe{}, false
		}
		d, ok := c.Val.(values.Date)
		if !ok {
			return probe{}, false
		}
		lo, hi := aa.duringBounds(a.rel, attrKey, d)
		return probe{kind: probeRange, attr: attrKey, count: hi - lo, exact: true, c: c, aa: aa, lo: lo, hi: hi}, true
	}
	return probe{}, false
}

// rangeBounds binary-searches the sorted-position array for the half-open
// candidate window of a range constraint. Families were pre-validated, so
// Compare cannot error.
func (aa *attrAccess) rangeBounds(r *Relation, attrKey, op string, cv qtree.Value) (int, int) {
	cmpAt := func(i int) int {
		cmp, _ := Compare(r.Tuples[aa.sorted[i]][attrKey], cv)
		return cmp
	}
	firstGE := sort.Search(len(aa.sorted), func(i int) bool { return cmpAt(i) >= 0 })
	firstGT := firstGE + sort.Search(len(aa.sorted)-firstGE, func(i int) bool { return cmpAt(firstGE+i) > 0 })
	switch op {
	case qtree.OpLt:
		return 0, firstGE
	case qtree.OpLe:
		return 0, firstGT
	case qtree.OpGt:
		return firstGT, len(aa.sorted)
	default: // OpGe
		return firstGE, len(aa.sorted)
	}
}

// duringBounds binary-searches the chronologically-sorted positions for the
// window of tuple dates the period d contains. Compare orders dates by
// (year, month, day) with unspecified components first, so each period — a
// whole year, a month, or a single day — is the contiguous run of dates whose
// specified-component prefix matches d exactly (Date.Contains demands the
// tuple date specify at least the components d does).
func (aa *attrAccess) duringBounds(r *Relation, attrKey string, d values.Date) (int, int) {
	depth := 3
	switch {
	case d.Month == 0:
		depth = 1
	case d.Day == 0:
		depth = 2
	}
	want := [3]int{d.Year, d.Month, d.Day}
	cmpAt := func(i int) int {
		t := r.Tuples[aa.sorted[i]][attrKey].(values.Date)
		have := [3]int{t.Year, t.Month, t.Day}
		for j := 0; j < depth; j++ {
			if have[j] != want[j] {
				if have[j] < want[j] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	lo := sort.Search(len(aa.sorted), func(i int) bool { return cmpAt(i) >= 0 })
	hi := lo + sort.Search(len(aa.sorted)-lo, func(i int) bool { return cmpAt(lo+i) > 0 })
	return lo, hi
}

// requiredWords extracts word tokens every match of a contains constant must
// carry. exact reports that token presence alone decides the match (single
// keyword); conjunctive and proximity patterns still need re-evaluation, and
// disjunctive patterns require nothing (not probeable this way).
func requiredWords(v qtree.Value) (words []string, exact bool) {
	switch t := v.(type) {
	case values.String:
		return []string{strings.ToLower(t.Raw())}, true
	case *values.Pattern:
		return patternRequired(t)
	}
	return nil, false
}

func patternRequired(p *values.Pattern) ([]string, bool) {
	switch p.Op {
	case values.PatWord:
		return []string{strings.ToLower(p.Word)}, true
	case values.PatAnd, values.PatNear:
		var out []string
		for _, s := range p.Subs {
			ws, _ := patternRequired(s)
			out = append(out, ws...)
		}
		return out, false
	default: // PatOr: no single required word
		return nil, false
	}
}

// estimate scores a residual constraint's expected match fraction, ordering
// residual evaluation most-selective-first. Probe-capable constraints use
// exact index counts; the rest fall back to statistics and per-operator
// heuristics.
func (a *Access) estimate(c *qtree.Constraint, ev *Evaluator) float64 {
	n := len(a.rel.Tuples)
	if n == 0 {
		return 0
	}
	if pr, ok := a.probeFor(c, ev); ok {
		return float64(pr.count) / float64(n)
	}
	var sel float64
	switch c.Op {
	case qtree.OpEq:
		sel = 0.1
		if aa, ok := a.carried(c.AttrKey()); ok && aa.stats.Distinct > 0 {
			sel = float64(aa.stats.Count) / float64(aa.stats.Distinct) / float64(n)
		}
	case qtree.OpNe:
		sel = 0.9
	case qtree.OpLt, qtree.OpLe, qtree.OpGt, qtree.OpGe:
		sel = 0.33
	case qtree.OpStarts, qtree.OpContains:
		sel = 0.1
	case qtree.OpDuring:
		sel = 0.2
	default:
		sel = 0.5
	}
	if c.IsJoin() {
		sel = 0.5
	}
	return sel
}

// candidates returns the probe's candidate positions, ascending. Hash
// buckets and postings are already ascending and are returned as they are;
// sorted-array windows are position-sorted copies.
func (pr *probe) candidates() []int32 {
	switch pr.kind {
	case probeEmpty:
		return nil
	case probeEq:
		return pr.bucket
	case probeToken:
		return pr.postings
	default:
		src := pr.aa.sorted
		if pr.useLex {
			src = pr.aa.lex
		}
		out := slices.Clone(src[pr.lo:pr.hi])
		slices.Sort(out)
		return out
	}
}

// selectTuples returns the tuples that satisfy the query in ascending
// position order, the scan path's order. The context is polled every 64
// evaluated tuples so cancelled selections stop promptly. Execution
// counters accrue on the Access.
func (p *AccessPlan) selectTuples(ctx context.Context) ([]Tuple, error) {
	a := p.acc
	tuples := a.rel.Tuples
	var out []Tuple
	if !p.probed {
		a.fallbacks.Add(1)
		a.scanned.Add(uint64(len(tuples)))
		for pos, t := range tuples {
			if pos&63 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			ok, err := p.ev.EvalQuery(p.orig, t)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, t)
			}
		}
		return out, nil
	}
	a.probes.Add(uint64(len(p.disjuncts)))
	cands := make([][]int32, len(p.disjuncts))
	for i := range p.disjuncts {
		cands[i] = p.disjuncts[i].probe.candidates()
	}
	idx := make([]int, len(cands))
	var scanned uint64
	defer func() { a.scanned.Add(scanned) }()
	for {
		best := -1
		for i := range cands {
			if idx[i] < len(cands[i]) {
				if pos := int(cands[i][idx[i]]); best < 0 || pos < best {
					best = pos
				}
			}
		}
		if best < 0 {
			return out, nil
		}
		if scanned&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		scanned++
		t := tuples[best]
		matched := false
		for i := range cands {
			if idx[i] < len(cands[i]) && int(cands[i][idx[i]]) == best {
				idx[i]++
				if !matched {
					ok, err := p.matchDisjunct(i, t)
					if err != nil {
						return nil, err
					}
					matched = ok
				}
			}
		}
		if matched {
			out = append(out, t)
		}
	}
}

// matchDisjunct evaluates disjunct i's residual conjuncts (cheapest-first,
// And-short-circuit) against a candidate tuple.
func (p *AccessPlan) matchDisjunct(i int, t Tuple) (bool, error) {
	for _, c := range p.disjuncts[i].residual {
		ok, err := p.ev.EvalConstraint(c, t)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// SelectAccess evaluates q like Select but through acc's cost-based planner:
// per-disjunct index probes with residual re-evaluation when sound, full
// scan otherwise. Results are byte-identical to Select — same tuples, same
// order, same errors. ctx is polled on a stride, giving indexed selections
// the cancellation points plain Select lacks. A nil acc, or one built over a
// different relation, degrades to Select.
func (r *Relation) SelectAccess(ctx context.Context, q *qtree.Node, ev *Evaluator, acc *Access) (*Relation, error) {
	if acc == nil || acc.rel != r {
		return r.Select(q, ev)
	}
	tuples, err := acc.PlanQuery(q, ev).selectTuples(ctx)
	if err != nil {
		return nil, selectErr(r.Name, err)
	}
	return &Relation{Name: r.Name, Tuples: tuples}, nil
}
