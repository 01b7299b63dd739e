package core

import (
	"sync"

	"repro/internal/qtree"
)

// Parallel branch mapping. The embarrassingly parallel outer loops — one SCM
// per disjunct in Algorithm DNF, one recursive TDQM per Or-branch — fan out
// over forked child translators behind a bounded worker pool, mirroring
// internal/serve's per-source fan-out. Branch results are placed by index
// and child statistics merged in branch order, so output, Stats, and residue
// tracking are identical to the sequential path.

// parallelEligible reports whether a fan-out over n branches should run
// concurrently.
func (t *Translator) parallelEligible(n int) bool {
	return t.sem != nil && n > 1 && t.tracer == nil && t.trace == nil
}

// fork returns a child translator for one branch: same spec, flags, metrics,
// shared memo, and shared worker pool, with its own Stats and residue flag.
// The child starts at depth 1 so its structural calls never create or drop
// the shared memo.
func (t *Translator) fork() *Translator {
	return &Translator{
		Spec:          t.Spec,
		fullDNFSafety: t.fullDNFSafety,
		compiledOff:   t.compiledOff,
		memoOff:       t.memoOff,
		memo:          t.memo,
		shared:        t.shared,
		metrics:       t.metrics,
		workers:       t.workers,
		sem:           t.sem,
		depth:         1,
		residueClean:  true,
	}
}

// merge folds a finished branch translator's accounting back into t.
func (t *Translator) merge(sub *Translator) {
	t.Stats.SCMCalls += sub.Stats.SCMCalls
	t.Stats.MatchRuns += sub.Stats.MatchRuns
	t.Stats.MatchingsFound += sub.Stats.MatchingsFound
	t.Stats.PSafeCalls += sub.Stats.PSafeCalls
	t.Stats.ProductTerms += sub.Stats.ProductTerms
	t.Stats.Disjunctivizations += sub.Stats.Disjunctivizations
	t.Stats.DNFDisjuncts += sub.Stats.DNFDisjuncts
	t.Stats.RuleAttempts += sub.Stats.RuleAttempts
	t.memoStats.Hits += sub.memoStats.Hits
	t.memoStats.Misses += sub.memoStats.Misses
	t.residueClean = t.residueClean && sub.residueClean
}

// mapBranches maps every branch through fn on a forked translator, running
// up to the configured worker count concurrently. A branch that cannot get
// a pool slot runs inline on the calling goroutine — the slot-or-inline
// acquisition means nested fan-outs (an Or inside a disjunct) can never
// deadlock on the shared pool. Results are placed by branch index, children
// merged in branch order, and the first error (by branch index) returned.
func (t *Translator) mapBranches(branches []*qtree.Node, fn func(*Translator, *qtree.Node) (*qtree.Node, error)) ([]*qtree.Node, error) {
	out := make([]*qtree.Node, len(branches))
	errs := make([]error, len(branches))
	subs := make([]*Translator, len(branches))
	var wg sync.WaitGroup
	for i := range branches {
		sub := t.fork()
		subs[i] = sub
		select {
		case t.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-t.sem }()
				out[i], errs[i] = fn(sub, branches[i])
			}(i)
		default:
			out[i], errs[i] = fn(sub, branches[i])
		}
	}
	wg.Wait()
	for _, sub := range subs {
		t.merge(sub)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
