package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// Partition is the result of Algorithm PSafe: a partition of a conjunction's
// conjuncts into blocks that are safe to translate independently
// (S(Q̂) = ∏ S(∧(B))) and minimal before merging (no block further
// partitionable safely — Theorem 6).
type Partition struct {
	// Blocks holds disjoint, sorted conjunct-index blocks covering all
	// conjuncts, ordered by first index.
	Blocks [][]int
	// Separable reports whether every conjunct ended up in its own block,
	// i.e. the conjunction was safe to separate completely.
	Separable bool
	// CrossMatchings counts the cross-matching instances found across the
	// examined product terms.
	CrossMatchings int
}

// String renders the partition as {{0,1},{2}}.
func (p *Partition) String() string {
	parts := make([]string, len(p.Blocks))
	for i, b := range p.Blocks {
		es := make([]string, len(b))
		for j, x := range b {
			es[j] = fmt.Sprint(x)
		}
		parts[i] = "{" + strings.Join(es, ",") + "}"
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// PSafe is Algorithm PSafe (Figure 11): it partitions the given conjuncts
// into safe, minimal blocks with respect to the translator's specification.
//
// Step 1 computes the conjuncts' essential DNF (Procedure EDNF) and scans
// every product term for cross-matchings — potential matchings spanning
// ingredients of different conjuncts — recording, per cross-matching, the
// candidate blocks that minimally cover it. Step 2 selects an irredundant
// set of candidate blocks covering all cross-matchings, merges overlapping
// blocks, and completes the partition with singleton blocks.
//
// The spec's static feature-pair adjacency proves many shapes separable
// without scanning at all (see staticallySeparable).
func (t *Translator) PSafe(conjuncts []*qtree.Node) (*Partition, error) {
	t.Stats.PSafeCalls++
	t.metrics.PSafeCall(t.Spec.Name)
	n := len(conjuncts)
	all := qtree.NewConstraintSet()
	for _, c := range conjuncts {
		all.AddAll(qtree.SetOfConstraints(c))
	}
	var sp *obs.Span
	startTerms := t.Stats.ProductTerms
	var ms []*rules.Matching
	var err error
	if t.tracer != nil {
		t.traceEnter(all.Slice())
		defer t.traceExit()
		sp = t.tracer.Start(obs.KindPSafe, "")
		defer t.tracer.End()
		sp.Set(obs.CtrConjuncts, int64(n))
		sp.Set(obs.CtrEssentialDNFSize, t.essentialSize(all.Slice()))
		ms, _, err = t.tracedMatchings(all.Slice())
	} else {
		ms, err = t.matchings(all.Slice())
	}
	if err != nil {
		return nil, err
	}
	// Single-constraint potential matchings can never be cross-matchings:
	// inside any product term, a one-constraint matching lies wholly within
	// whichever ingredient contributed its constraint. They are equally
	// inert in EDNF nullification (containment in a disjunct they intersect
	// is automatic, and the single-constraint case is exempt from the
	// witness rule), so dropping them up front is exact — results and Stats
	// are unchanged, the scan just compares fewer sets.
	mp := multiConstraintSets(matchingSets(ms))

	des := make([]DNFExpr, n)
	for i, c := range conjuncts {
		des[i] = t.EDNF(c, mp)
	}

	total := 1
	for i := range des {
		total *= len(des[i])
	}

	// Step 1: scan product terms for cross-matchings and candidate blocks.
	// When no potential matching can span two conjuncts the scan finds
	// nothing, so it is skipped and the examined terms accounted
	// arithmetically: len(mp) == 0 covers the dependency-free case, and the
	// spec's static feature-pair adjacency proves the rest shape-wise.
	cands := make(map[string]*candBlock) // keyed by index-tuple
	instBlocks := make(map[string][]string)
	var instOrder []string

	if len(mp) > 0 && !t.staticallySeparable(conjuncts) {
		for _, in := range t.scanTerms(des, mp, total) {
			if _, dup := instBlocks[in.id]; dup {
				continue
			}
			instOrder = append(instOrder, in.id)
			for _, bidx := range in.covers {
				key := blockKey(bidx)
				cb, ok := cands[key]
				if !ok {
					cb = &candBlock{indices: bidx, covers: make(map[string]bool)}
					cands[key] = cb
				}
				cb.covers[in.id] = true
				instBlocks[in.id] = append(instBlocks[in.id], key)
			}
		}
	}
	t.Stats.ProductTerms += total

	p := &Partition{CrossMatchings: len(instOrder)}

	// Step 2: choose an irredundant cover of the cross-matching instances.
	chosen := chooseCover(instOrder, instBlocks, cands)

	// Merge overlapping chosen blocks (union-find over conjunct indices).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, key := range chosen {
		b := cands[key].indices
		for _, x := range b[1:] {
			parent[find(x)] = find(b[0])
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	// Order blocks by their smallest member for determinism.
	sort.Slice(roots, func(a, b int) bool { return groups[roots[a]][0] < groups[roots[b]][0] })
	for _, r := range roots {
		blk := groups[r]
		sort.Ints(blk)
		p.Blocks = append(p.Blocks, blk)
	}
	p.Separable = len(p.Blocks) == n
	t.metrics.ProductTerms(t.Spec.Name, t.Stats.ProductTerms-startTerms)
	if sp != nil {
		sp.Set(obs.CtrBlocks, int64(len(p.Blocks)))
		sp.Set(obs.CtrCrossMatchings, int64(p.CrossMatchings))
		sp.Set(obs.CtrProductTerms, int64(t.Stats.ProductTerms-startTerms))
		if p.Separable {
			sp.Set(obs.CtrSeparable, 1)
		} else {
			sp.Set(obs.CtrSeparable, 0)
		}
	}
	return p, nil
}

func blockKey(idx []int) string {
	b := make([]byte, 0, 4*len(idx))
	for i, x := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// multiConstraintSets keeps the potential matchings holding at least two
// constraints — the only ones that can span conjuncts. It filters in place:
// matchingSets returns a fresh slice.
func multiConstraintSets(sets []*qtree.ConstraintSet) []*qtree.ConstraintSet {
	out := sets[:0]
	for _, s := range sets {
		if s.Len() >= 2 {
			out = append(out, s)
		}
	}
	return out
}

// staticallySeparable consults the spec's static translation plan: a
// cross-matching assigns constraints of two different conjuncts to patterns
// of one rule, so if no feature pair of any rule is jointly satisfiable
// across any conjunct pair, no product term can contain a cross-matching and
// the scan is skipped. The check is shape-only (no matcher runs) and
// one-sided: false means "cannot prove", not "cross-matchings exist".
// Only the compiled path uses it — the tdqm-uncompiled ablation stays fully
// interpretive.
func (t *Translator) staticallySeparable(conjuncts []*qtree.Node) bool {
	if t.compiledOff {
		return false
	}
	tp := t.Spec.TranslationPlan()
	if tp.Pairs() == 0 {
		return true
	}
	sats := make([][]uint64, len(conjuncts))
	for i, c := range conjuncts {
		sats[i] = tp.SatMask(c.Constraints())
	}
	for i := 0; i < len(conjuncts); i++ {
		for j := i + 1; j < len(conjuncts); j++ {
			if tp.CrossFeasible(sats[i], sats[j]) {
				return false
			}
		}
	}
	return true
}

// scanInst is one cross-matching occurrence found by the product-term scan:
// its instance ID (term index tuple + matching ID) and the minimal candidate
// blocks covering it, in discovery order.
type scanInst struct {
	id     string
	covers [][]int
}

// psafeParMinTerms is the minimum product-term count before the scan fans
// out onto the worker pool; below it the fork/merge overhead dominates.
const psafeParMinTerms = 64

// scanTerms enumerates the [0, total) product terms of des and returns the
// cross-matching instances in term order. When a worker pool is configured
// and the term space is large enough, disjoint index ranges are scanned
// concurrently and stitched back in order, so the result — and everything
// downstream (candidate blocks, chooseCover, the partition) — is identical
// to the sequential scan. Traced runs stay sequential: tracing is a
// deterministic single-goroutine artifact regime.
func (t *Translator) scanTerms(des []DNFExpr, mp []*qtree.ConstraintSet, total int) []scanInst {
	if t.sem != nil && t.tracer == nil && t.trace == nil && total >= psafeParMinTerms {
		return scanTermsParallel(t.sem, des, mp, total)
	}
	return scanTermRange(des, mp, 0, total)
}

// scanTermRange scans product terms lo..hi (odometer order, last dimension
// fastest). One constraint set is reused across terms and the term ID is
// built lazily — most terms contain no cross-matching.
func scanTermRange(des []DNFExpr, mp []*qtree.ConstraintSet, lo, hi int) []scanInst {
	n := len(des)
	idx := make([]int, n)
	rem := lo
	for i := n - 1; i >= 0; i-- {
		idx[i] = rem % len(des[i])
		rem /= len(des[i])
	}
	ing := make([]*qtree.ConstraintSet, n)
	term := qtree.NewConstraintSet()
	keyBuf := make([]byte, 0, 4*n)
	var out []scanInst
	for pos := lo; pos < hi; pos++ {
		term.Reset()
		for i := range idx {
			ing[i] = des[i][idx[i]]
			term.AddAll(ing[i])
		}
		termID := ""
		for _, m := range mp {
			if !m.SubsetOf(term) {
				continue
			}
			inside := false
			for i := 0; i < n; i++ {
				if m.SubsetOf(ing[i]) {
					inside = true
					break
				}
			}
			if inside {
				continue // not a cross-matching in this term
			}
			if termID == "" {
				keyBuf = keyBuf[:0]
				for i, x := range idx {
					if i > 0 {
						keyBuf = append(keyBuf, ',')
					}
					keyBuf = strconv.AppendInt(keyBuf, int64(x), 10)
				}
				termID = "[" + string(keyBuf) + "]"
			}
			out = append(out, scanInst{id: termID + "|" + m.ID(), covers: minimalCovers(m, ing)})
		}
		// odometer
		i := n - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(des[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// scanTermsParallel splits [0, total) into one chunk per pool slot (plus the
// caller) and scans them concurrently, borrowing slots from the shared
// n−1-slot semaphore with the same acquire-or-inline discipline as
// mapBranches, so nested fan-out cannot deadlock. Chunk results are
// concatenated in chunk order, which is term order.
func scanTermsParallel(sem chan struct{}, des []DNFExpr, mp []*qtree.ConstraintSet, total int) []scanInst {
	workers := cap(sem) + 1
	chunk := (total + workers - 1) / workers
	nChunks := (total + chunk - 1) / chunk
	results := make([][]scanInst, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > total {
			hi = total
		}
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				defer func() { <-sem }()
				results[c] = scanTermRange(des, mp, lo, hi)
			}(c, lo, hi)
		default:
			results[c] = scanTermRange(des, mp, lo, hi)
		}
	}
	wg.Wait()
	out := results[0]
	for _, r := range results[1:] {
		out = append(out, r...)
	}
	return out
}

// minimalCovers enumerates all minimal (irredundant) covers of matching m by
// the ingredient constraint sets: subsets β of conjunct indices such that
// m ⊆ ∪_{i∈β} C(I_i) and no proper subset of β covers m (Figure 11,
// lines 9–10).
//
// Enumeration goes by per-constraint choice: for each constraint of m pick
// one conjunct containing it, union the choices, then keep the minimal
// sets. Every minimal cover arises this way (each member of a minimal
// cover exclusively covers some constraint, so choosing those exclusive
// constraints reconstructs it), and the work is bounded by
// ∏ |holders(c)| over m's constraints — small, since rule arity bounds |m|.
func minimalCovers(m *qtree.ConstraintSet, ing []*qtree.ConstraintSet) [][]int {
	keys := m.Keys()
	holders := make([][]int, len(keys))
	for ki, key := range keys {
		for i, s := range ing {
			if s.HasKey(key) {
				holders[ki] = append(holders[ki], i)
			}
		}
		if len(holders[ki]) == 0 {
			return nil // m not coverable in this term (cannot happen when m ⊆ term)
		}
	}
	// Product of choices, collecting candidate index sets.
	seen := make(map[string]bool)
	var candidates [][]int
	choice := make([]int, len(keys))
	for {
		set := make(map[int]bool, len(keys))
		for ki := range keys {
			set[holders[ki][choice[ki]]] = true
		}
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		key := blockKey(idxs)
		if !seen[key] {
			seen[key] = true
			candidates = append(candidates, idxs)
		}
		// odometer
		ki := len(keys) - 1
		for ; ki >= 0; ki-- {
			choice[ki]++
			if choice[ki] < len(holders[ki]) {
				break
			}
			choice[ki] = 0
		}
		if ki < 0 {
			break
		}
	}
	// Keep only the minimal candidates (no other candidate is a proper
	// subset).
	var out [][]int
	for i, a := range candidates {
		minimal := true
		for j, b := range candidates {
			if i != j && properSubsetInts(b, a) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, a)
		}
	}
	return out
}

// properSubsetInts reports whether sorted a is a proper subset of sorted b.
func properSubsetInts(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// candBlock is a candidate block (Figure 11, variable X): the conjunct
// indices it comprises and the cross-matching instances it covers (B̃).
type candBlock struct {
	indices []int
	covers  map[string]bool
}

// chooseCover selects an irredundant subset of the candidate blocks covering
// every cross-matching instance (Figure 11, line 16). Blocks that are the
// sole cover of some instance are forced; the remainder is covered greedily
// (largest marginal coverage, ties broken by smaller block then by key for
// determinism), and a final pruning pass removes blocks made redundant by
// later choices, yielding a minimal (irredundant) cover.
func chooseCover(instOrder []string, instBlocks map[string][]string, cands map[string]*candBlock) []string {
	if len(instOrder) == 0 {
		return nil
	}
	chosen := make(map[string]bool)
	covered := make(map[string]bool)

	markCovered := func(key string) {
		for inst := range cands[key].covers {
			covered[inst] = true
		}
	}

	// Forced blocks: sole cover of some instance.
	for _, inst := range instOrder {
		bs := instBlocks[inst]
		if len(bs) == 1 && !chosen[bs[0]] {
			chosen[bs[0]] = true
			markCovered(bs[0])
		}
	}

	// Greedy cover of the remainder.
	keys := make([]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := cands[keys[a]], cands[keys[b]]
		if len(ka.indices) != len(kb.indices) {
			return len(ka.indices) < len(kb.indices)
		}
		return keys[a] < keys[b]
	})
	remaining := func() int {
		c := 0
		for _, inst := range instOrder {
			if !covered[inst] {
				c++
			}
		}
		return c
	}
	for remaining() > 0 {
		best, bestGain := "", 0
		for _, k := range keys {
			if chosen[k] {
				continue
			}
			gain := 0
			for inst := range cands[k].covers {
				if !covered[inst] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = k, gain
			}
		}
		if best == "" {
			break // cannot happen: every instance has at least one candidate
		}
		chosen[best] = true
		markCovered(best)
	}

	// Prune: drop blocks whose instances are all covered by other choices.
	chosenKeys := make([]string, 0, len(chosen))
	for k := range chosen {
		chosenKeys = append(chosenKeys, k)
	}
	// Try to drop larger blocks first so the surviving cover prefers small
	// blocks, matching the paper's minimality discussion.
	sort.Slice(chosenKeys, func(a, b int) bool {
		ka, kb := cands[chosenKeys[a]], cands[chosenKeys[b]]
		if len(ka.indices) != len(kb.indices) {
			return len(ka.indices) > len(kb.indices)
		}
		return chosenKeys[a] < chosenKeys[b]
	})
	for _, k := range chosenKeys {
		redundant := true
		for inst := range cands[k].covers {
			soleHolder := true
			for _, other := range instBlocks[inst] {
				if other != k && chosen[other] {
					soleHolder = false
					break
				}
			}
			if soleHolder {
				redundant = false
				break
			}
		}
		if redundant {
			delete(chosen, k)
		}
	}

	out := make([]string, 0, len(chosen))
	for k := range chosen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
