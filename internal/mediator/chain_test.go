package mediator_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qtree"
	"repro/internal/workload"
)

// chainCase derives a deterministic two-hop chain scenario, a query batch,
// and an extended dataset for one seed, mirroring the conformance
// generator's configuration.
func chainCase(t *testing.T, seed int64) (*workload.Scenario, *workload.ChainScenario, []*qtree.Node, *engine.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := workload.New(workload.Config{
		Indep:        1 + rng.Intn(3),
		Pairs:        1 + rng.Intn(2),
		InexactPairs: rng.Intn(2),
		Triples:      rng.Intn(2),
	})
	ch := workload.NewChain(s, rand.New(rand.NewSource(seed*7919)))
	qcfg := workload.QueryConfig{MaxDepth: 2 + rng.Intn(3), MaxFanout: 2 + rng.Intn(2), LeafProb: 0.4}
	var qs []*qtree.Node
	for i := 0; i < 6; i++ {
		qs = append(qs, s.RandomQuery(rng, qcfg))
	}
	rel := ch.ExtendRelation(s.Relation("d", rng, 40))
	return s, ch, qs, rel
}

func renderRel(r *engine.Relation) string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func dedupRender(r *engine.Relation) string {
	seen := make(map[string]bool)
	var keys []string
	for _, t := range r.Tuples {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func subsetRel(t *testing.T, label string, small, big *engine.Relation) {
	t.Helper()
	in := make(map[string]bool, len(big.Tuples))
	for _, tu := range big.Tuples {
		in[tu.String()] = true
	}
	for _, tu := range small.Tuples {
		if !in[tu.String()] {
			t.Fatalf("%s: tuple %s missing from superset", label, tu)
		}
	}
}

// TestChainGridEquivalence is the composed-vs-sequential equivalence grid:
// 40 seeds × {baseline, memo off, shared MatchCache, parallelism}, each
// checking on every query that the sequential two-hop translation and the
// composed one-hop translation nest raw (σ_seq ⊆ σ_comp), both subsume the
// truth, and both are byte-identical to the truth after filtering with Q.
// CI runs this under -race.
func TestChainGridEquivalence(t *testing.T) {
	type variant struct {
		name string
		opts func() []core.Option
	}
	variants := []variant{
		{"baseline", func() []core.Option { return nil }},
		{"memo-off", func() []core.Option { return []core.Option{core.WithMemo(false)} }},
		{"matchcache", func() []core.Option { return []core.Option{core.WithMatchCache(core.NewMatchCache(0))} }},
		{"par", func() []core.Option { return []core.Option{core.WithParallelism(4)} }},
	}
	for seed := int64(1); seed <= 40; seed++ {
		s, ch, qs, rel := chainCase(t, seed)
		chain, err := mediator.Chain(s.Spec, ch.Spec2)
		if err != nil {
			t.Fatalf("seed %d: Chain: %v", seed, err)
		}
		var baseline []string
		for _, v := range variants {
			opts := v.opts()
			var renders []string
			for qi, q := range qs {
				label := fmt.Sprintf("seed %d %s q%d", seed, v.name, qi)
				truth, err := rel.Select(q, s.Eval)
				if err != nil {
					t.Fatalf("%s: truth: %v", label, err)
				}
				seqQ, _, err := chain.SequentialTranslate(context.Background(), q, core.AlgTDQM, opts...)
				if err != nil {
					t.Fatalf("%s: sequential: %v", label, err)
				}
				res, err := core.NewTranslator(chain.Composed, opts...).Do(context.Background(), q, core.AlgTDQM)
				if err != nil {
					t.Fatalf("%s: composed: %v", label, err)
				}
				seqRel, err := rel.Select(seqQ, s.Eval)
				if err != nil {
					t.Fatalf("%s: eval seq: %v", label, err)
				}
				compRel, err := rel.Select(res.Mapped, s.Eval)
				if err != nil {
					t.Fatalf("%s: eval comp: %v", label, err)
				}
				subsetRel(t, label+" truth⊆seq", truth, seqRel)
				subsetRel(t, label+" seq⊆comp", seqRel, compRel)
				seqF, err := seqRel.Select(q, s.Eval)
				if err != nil {
					t.Fatalf("%s: filter seq: %v", label, err)
				}
				compF, err := compRel.Select(q, s.Eval)
				if err != nil {
					t.Fatalf("%s: filter comp: %v", label, err)
				}
				want := renderRel(truth)
				if got := renderRel(seqF); got != want {
					t.Fatalf("%s: filtered sequential differs from truth", label)
				}
				if got := renderRel(compF); got != want {
					t.Fatalf("%s: filtered composed differs from truth", label)
				}
				renders = append(renders, res.Mapped.String())
			}
			joined := strings.Join(renders, "\n---\n")
			if v.name == "baseline" {
				baseline = renders
			} else {
				if joined != strings.Join(baseline, "\n---\n") {
					t.Fatalf("seed %d: variant %s produced different composed translations", seed, v.name)
				}
			}
		}
	}
}

// TestChainDebugExecuteUnion runs the mediator-level differential: a
// composed-spec source and the same mediator in ChainDebug mode must return
// byte-identical filtered answers, both equal to the deduplicated truth.
func TestChainDebugExecuteUnion(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		s, ch, qs, rel := chainCase(t, seed)
		chain, err := mediator.Chain(s.Spec, ch.Spec2)
		if err != nil {
			t.Fatalf("seed %d: Chain: %v", seed, err)
		}
		data := map[string]*engine.Relation{"chain": rel}

		medC := mediator.New()
		medC.AddChainSource("chain", chain, s.Eval)

		medD := mediator.New()
		medD.AddChainSource("chain", chain, s.Eval)
		medD.ChainDebug = true

		for qi, q := range qs {
			truth, err := rel.Select(q, s.Eval)
			if err != nil {
				t.Fatalf("seed %d q%d: truth: %v", seed, qi, err)
			}
			ansC, _, err := medC.ExecuteUnion(q, data)
			if err != nil {
				t.Fatalf("seed %d q%d: composed union: %v", seed, qi, err)
			}
			ansD, _, err := medD.ExecuteUnion(q, data)
			if err != nil {
				t.Fatalf("seed %d q%d: chain-debug union: %v", seed, qi, err)
			}
			want := dedupRender(truth)
			if got := renderRel(ansC); got != want {
				t.Fatalf("seed %d q%d: composed answer differs from truth\nq = %s", seed, qi, q)
			}
			if got := renderRel(ansD); got != want {
				t.Fatalf("seed %d q%d: chain-debug answer differs from truth\nq = %s", seed, qi, q)
			}
		}
	}
}

// TestChainDegenerateAndStats covers the degenerate single-spec chain and
// the summed sequential stats.
func TestChainDegenerateAndStats(t *testing.T) {
	s, ch, qs, _ := chainCase(t, 3)
	single, err := mediator.Chain(s.Spec)
	if err != nil {
		t.Fatalf("single-spec Chain: %v", err)
	}
	if single.Composed != s.Spec || len(single.Infos) != 0 {
		t.Fatalf("degenerate chain altered the spec")
	}
	if _, err := mediator.Chain(); err == nil {
		t.Fatalf("empty Chain did not error")
	}

	chain, err := mediator.Chain(s.Spec, ch.Spec2)
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(chain.Infos) != 1 || chain.Infos[0].RulesComposed != len(s.Spec.Rules) {
		t.Fatalf("ComposeInfo not threaded: %+v", chain.Infos)
	}
	_, stats, err := chain.SequentialTranslate(context.Background(), qs[0], core.AlgTDQM)
	if err != nil {
		t.Fatalf("SequentialTranslate: %v", err)
	}
	if stats.RuleAttempts == 0 {
		t.Fatalf("summed sequential stats recorded no rule attempts: %+v", stats)
	}
}
