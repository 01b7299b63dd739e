package obs

import "sync"

// TranslationMetrics is the metric set the translation core feeds: per-rule
// fire/suppress counters and per-spec algorithm work counters, all labeled
// by mapping specification. Attach one to a core.Translator (WithMetrics) or
// a mediator (Mediator.Metrics); the same instance may serve any number of
// translators concurrently.
//
// The hot path goes through a read-locked lookup cache so that a rule fire
// costs one RLock + one atomic add after first use, rather than a registry
// get-or-create.
type TranslationMetrics struct {
	reg *Registry

	mu    sync.RWMutex
	cache map[string]*Counter
}

// NewTranslationMetrics returns translation metrics registered on r.
func NewTranslationMetrics(r *Registry) *TranslationMetrics {
	return &TranslationMetrics{reg: r, cache: make(map[string]*Counter)}
}

// Registry returns the backing registry.
func (m *TranslationMetrics) Registry() *Registry { return m.reg }

// counter memoizes registry lookups under a composite key.
func (m *TranslationMetrics) counter(key, name, help string, kv ...string) *Counter {
	m.mu.RLock()
	c, ok := m.cache[key]
	m.mu.RUnlock()
	if ok {
		return c
	}
	c = m.reg.Counter(name, help, kv...)
	m.mu.Lock()
	m.cache[key] = c
	m.mu.Unlock()
	return c
}

// RuleFired counts a matching of the named rule retained after suppression
// (the rule contributed atoms to a translation).
func (m *TranslationMetrics) RuleFired(spec, rule string) {
	if m == nil {
		return
	}
	m.counter("f\x00"+spec+"\x00"+rule,
		"qmap_rule_fires_total", "Rule matchings retained after submatching suppression.",
		"spec", spec, "rule", rule).Inc()
}

// RuleSuppressed counts a matching of the named rule dropped as a
// submatching of a larger one (Algorithm SCM step 2).
func (m *TranslationMetrics) RuleSuppressed(spec, rule string) {
	if m == nil {
		return
	}
	m.counter("s\x00"+spec+"\x00"+rule,
		"qmap_rule_suppressed_total", "Rule matchings suppressed as submatchings of larger ones.",
		"spec", spec, "rule", rule).Inc()
}

// SCMCall counts one Algorithm SCM invocation for spec.
func (m *TranslationMetrics) SCMCall(spec string) {
	if m == nil {
		return
	}
	m.counter("scm\x00"+spec,
		"qmap_scm_calls_total", "Algorithm SCM invocations.", "spec", spec).Inc()
}

// PSafeCall counts one Algorithm PSafe invocation for spec.
func (m *TranslationMetrics) PSafeCall(spec string) {
	if m == nil {
		return
	}
	m.counter("psafe\x00"+spec,
		"qmap_psafe_calls_total", "Algorithm PSafe invocations.", "spec", spec).Inc()
}

// ProductTerms counts product terms examined during safety checking — the
// paper's 2^{ne} quantity, whose growth tracks the dependency degree e.
func (m *TranslationMetrics) ProductTerms(spec string, n int) {
	if m == nil || n <= 0 {
		return
	}
	m.counter("pt\x00"+spec,
		"qmap_product_terms_total", "Product terms examined during safety checks.",
		"spec", spec).Add(uint64(n))
}

// Disjunctivization counts one local structure rewrite (TDQM Case-2).
func (m *TranslationMetrics) Disjunctivization(spec string) {
	if m == nil {
		return
	}
	m.counter("dz\x00"+spec,
		"qmap_disjunctivizations_total", "Local Disjunctivize structure rewrites.",
		"spec", spec).Inc()
}

// ComposeChainBuilt counts one offline chain composition producing the
// named composed spec from hops mapping hops.
func (m *TranslationMetrics) ComposeChainBuilt(spec string, hops int) {
	if m == nil {
		return
	}
	m.counter("cc\x00"+spec,
		"qmap_compose_chains_total", "Offline spec-chain compositions performed.",
		"spec", spec).Inc()
	m.counter("ch\x00"+spec,
		"qmap_compose_hops_total", "Mapping hops folded into composed specs.",
		"spec", spec).Add(uint64(hops))
}

// ComposeTranslation counts one translation through a composed chain spec.
// mode is "composed" (single precomposed hop) or "sequential" (the chain
// debug path that re-translates hop by hop).
func (m *TranslationMetrics) ComposeTranslation(spec, mode string) {
	if m == nil {
		return
	}
	m.counter("ct\x00"+spec+"\x00"+mode,
		"qmap_compose_translations_total", "Translations through composed chain specs.",
		"spec", spec, "mode", mode).Inc()
}
