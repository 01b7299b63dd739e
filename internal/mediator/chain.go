// Chain support: a mediator whose mapping to some source goes through
// intermediate vocabularies (mediator→M1→M2→…→source) can either translate a
// query hop by hop at request time, or precompose the whole chain offline
// into one spec with rules.Compose and translate in a single hop. ChainSpec
// packages both: the composed spec serves requests, the retained hops back
// the ChainDebug differential mode that re-translates sequentially so the
// two paths can be compared answer-for-answer.
package mediator

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
	"repro/internal/sources"
)

// ChainSpec is a multi-hop mapping chain precomposed offline into a single
// equivalent spec. Hops holds the original per-hop specs in mediator→source
// order; Composed is their left fold under rules.Compose; Infos records one
// ComposeInfo per fold step (len(Hops)-1 entries).
type ChainSpec struct {
	Hops     []*rules.Spec
	Composed *rules.Spec
	Infos    []*rules.ComposeInfo
}

// Chain composes specs left to right into a ChainSpec. A single spec is a
// valid (degenerate) chain: Composed is the spec itself and Infos is empty.
// Composition is offline work — do it once at deployment time, not per
// query. Errors are conservative: any hop pair Compose cannot prove sound
// fails the whole chain.
func Chain(specs ...*rules.Spec) (*ChainSpec, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mediator: Chain needs at least one spec")
	}
	ch := &ChainSpec{
		Hops:     append([]*rules.Spec(nil), specs...),
		Composed: specs[0],
	}
	for _, next := range specs[1:] {
		comp, info, err := rules.ComposeDetail(ch.Composed, next)
		if err != nil {
			return nil, fmt.Errorf("mediator: composing %s with %s: %w",
				ch.Composed.Name, next.Name, err)
		}
		ch.Composed = comp
		ch.Infos = append(ch.Infos, info)
	}
	return ch, nil
}

// Source wraps the composed spec as a mediator source: translations against
// it cross the whole chain in one hop.
func (ch *ChainSpec) Source(name string, eval *engine.Evaluator) *sources.Source {
	return &sources.Source{Name: name, Spec: ch.Composed, Eval: eval}
}

// SequentialTranslate translates q through the chain hop by hop — the
// reference semantics the composed spec must agree with after filtering.
// Stats is the sum of per-hop translation work, directly comparable with
// the single composed hop's. A tracer carried by ctx (obs.WithTracer) gets
// one "source" span per hop, named "hop:<spec>", with the hop's algorithm
// spans beneath it.
func (ch *ChainSpec) SequentialTranslate(ctx context.Context, q *qtree.Node, alg string, opts ...core.Option) (*qtree.Node, core.Stats, error) {
	cur := q
	var total core.Stats
	tracer := obs.TracerFrom(ctx)
	for _, hop := range ch.Hops {
		if tracer != nil {
			tracer.Start(obs.KindSource, "hop:"+hop.Name)
		}
		res, err := core.NewTranslator(hop, opts...).Do(ctx, cur, alg)
		if tracer != nil {
			tracer.End()
		}
		if err != nil {
			return nil, total, fmt.Errorf("mediator: chain hop %s: %w", hop.Name, err)
		}
		total.Add(res.Stats)
		cur = res.Mapped
	}
	return cur, total, nil
}

// AddChainSource registers a chain-backed source on the mediator: the
// composed spec serves the source's translations, and the chain is recorded
// so ChainDebug can replay the original hops sequentially. Returns the
// source it appended.
func (m *Mediator) AddChainSource(name string, ch *ChainSpec, eval *engine.Evaluator) *sources.Source {
	src := ch.Source(name, eval)
	m.Sources = append(m.Sources, src)
	if m.Chains == nil {
		m.Chains = make(map[string]*ChainSpec)
	}
	m.Chains[name] = ch
	m.Metrics.ComposeChainBuilt(ch.Composed.Name, len(ch.Hops))
	return src
}

// chainDebugTranslate short-circuits one source's translation when
// ChainDebug is on and the source has a registered chain: the query is
// re-translated hop by hop through the original specs instead of through
// the composed one. The residue is conservatively the whole query — per-hop
// exactness does not decompose into the per-constraint exact set the tight
// filter needs — so executors re-check Q on the branch; filtered answers
// equal the composed path's, which is exactly the differential the
// conformance compose oracle asserts.
func (m *Mediator) chainDebugTranslate(src *sources.Source, q *qtree.Node, alg string, tracer *obs.Tracer) (SourceTranslation, bool, error) {
	if !m.ChainDebug {
		return SourceTranslation{}, false, nil
	}
	ch, ok := m.Chains[src.Name]
	if !ok {
		return SourceTranslation{}, false, nil
	}
	if tracer != nil {
		tracer.Start(obs.KindSource, src.Name)
		defer tracer.End()
	}
	opts := []core.Option{
		core.WithMetrics(m.Metrics),
		core.WithParallelism(m.Parallelism),
		core.WithMatchCache(m.MatchCache),
	}
	ctx := obs.WithTracer(context.Background(), tracer)
	mapped, stats, err := ch.SequentialTranslate(ctx, q, alg, opts...)
	if err != nil {
		return SourceTranslation{}, false, fmt.Errorf("mediator: chain debug for %s: %w", src.Name, err)
	}
	m.Metrics.ComposeTranslation(ch.Composed.Name, "sequential")
	return SourceTranslation{Source: src, Query: mapped, Residue: q.Clone(), Stats: stats}, true, nil
}

// noteComposed records a composed-path translation for metrics when the
// source is chain-backed.
func (m *Mediator) noteComposed(src *sources.Source) {
	if ch, ok := m.Chains[src.Name]; ok {
		m.Metrics.ComposeTranslation(ch.Composed.Name, "composed")
	}
}
