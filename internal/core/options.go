package core

import "repro/internal/obs"

// Option configures a Translator at construction time. Options are the
// primary configuration surface — each one owns its configuration logic,
// and the mutating setters (SetParallelism, SetTracer, ...) are thin
// deprecated wrappers that apply the corresponding option after the fact.
// A translator is assembled once, fully configured, by
// NewTranslator(spec, opts...).
type Option func(*Translator)

// WithParallelism bounds the worker pool branch mapping and TranslateBatch
// may use; n <= 1 keeps translation fully sequential (the default).
// Parallelism is skipped whenever a tracer or derivation trace is attached —
// span trees and derivation logs are ordered, sequential artifacts.
func WithParallelism(n int) Option {
	return func(t *Translator) {
		if n <= 1 {
			t.workers, t.sem = 0, nil
			return
		}
		t.workers = n
		// n-1 slots: the caller's goroutine is the n-th worker (branches
		// that find the pool full run inline on it).
		t.sem = make(chan struct{}, n-1)
	}
}

// WithMatchCache attaches a shared cross-request matchings cache (nil
// detaches). Results and Stats are identical with or without one; see
// MatchCache.
func WithMatchCache(c *MatchCache) Option {
	return func(t *Translator) { t.shared = c }
}

// WithTracer attaches a span tracer recording the full derivation call
// tree (nil detaches). A nil tracer is a no-op.
func WithTracer(tr *obs.Tracer) Option {
	return func(t *Translator) { t.tracer = tr }
}

// WithMetrics attaches cumulative translation metrics recorded under the
// spec's name (nil detaches). A nil metrics handle is a no-op.
func WithMetrics(m *obs.TranslationMetrics) Option {
	return func(t *Translator) { t.metrics = m }
}

// WithTrace attaches a flat derivation-trace collector (qmap -explain).
func WithTrace(tr *Trace) Option {
	return func(t *Translator) { t.SetTrace(tr) }
}

// WithMemo enables or disables the translation-scoped matching memo
// (enabled by default).
func WithMemo(on bool) Option {
	return func(t *Translator) { t.SetMemo(on) }
}

// WithCompiled enables or disables the compiled rule-dispatch engine
// (enabled by default).
func WithCompiled(on bool) Option {
	return func(t *Translator) { t.SetCompiled(on) }
}

// WithFullDNFSafety switches the safety machinery to full DNF (ablation).
func WithFullDNFSafety(on bool) Option {
	return func(t *Translator) { t.SetFullDNFSafety(on) }
}
