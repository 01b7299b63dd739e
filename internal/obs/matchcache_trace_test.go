package obs_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/sources"
)

// TestTracingWithMatchCacheMatchesCacheFree pins the shared cache's
// bypass-or-record contract under tracing: for every golden query and source
// spec, the span tree of a traced translation with a warm shared MatchCache
// attached is byte-identical to a cache-free traced run. Traced lookups
// never consult the cache (every match run must emit its spans), so the
// golden trace files stay stable with the cross-request cache wired in by
// the serving layer.
func TestTracingWithMatchCacheMatchesCacheFree(t *testing.T) {
	for _, tc := range goldenCases {
		q := qparse.MustParse(tc.query)
		for _, src := range []*sources.Source{
			sources.NewT1(), sources.NewT2(), sources.NewAmazon(), sources.NewClbooks(),
		} {
			cache := core.NewMatchCache(0)
			// Warm the cache with an untraced run so the traced run below
			// would hit on every lookup if it (incorrectly) consulted it.
			warm := core.NewTranslator(src.Spec, core.WithMatchCache(cache))
			if _, _, err := warm.TranslateWithFilter(q, core.AlgTDQM); err != nil {
				t.Fatalf("%s over %s: warming: %v", tc.name, src.Name, err)
			}

			trace := func(withCache bool) []byte {
				tracer := obs.NewTracer()
				opts := []core.Option{core.WithTracer(tracer)}
				if withCache {
					opts = append(opts, core.WithMatchCache(cache))
				}
				tr := core.NewTranslator(src.Spec, opts...)
				if _, _, err := tr.TranslateWithFilter(q, core.AlgTDQM); err != nil {
					t.Fatalf("%s over %s: %v", tc.name, src.Name, err)
				}
				if err := obs.Verify(tracer.Root()); err != nil {
					t.Fatalf("%s over %s (cache=%v): trace fails invariants: %v",
						tc.name, src.Name, withCache, err)
				}
				js, err := json.Marshal(tracer.Root())
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			on, off := trace(true), trace(false)
			if string(on) != string(off) {
				t.Errorf("%s over %s: cache-on trace differs from cache-free trace\n on: %s\noff: %s",
					tc.name, src.Name, on, off)
			}
		}
	}
}
