package core_test

import (
	"fmt"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
)

// translatorGrid is the translator-configuration grid the differential suite runs
// under: every combination of the translation-scoped memo and
// branch-mapping parallelism.
var translatorGrid = []struct {
	memo bool
	par  int
}{
	{true, 0},
	{false, 0},
	{true, 4},
	{false, 4},
}

// TestPlanEquivalenceConformance is the differential contract of the
// cross-request matchings cache under every translator configuration:
// across ≥40 conformance seeds and a {memo, parallelism} grid, translation
// with a cold shared MatchCache and with a warm one produces mapped queries
// and residues byte-identical (exact String equality, not just canonical
// equivalence) to a cache-free run of the same configuration, and, because
// every hit compensates the work counters, identical Stats. The cache must
// be observable only through MatchCacheStats.
func TestPlanEquivalenceConformance(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := conformance.NewCase(seed)
		for _, g := range translatorGrid {
			name := fmt.Sprintf("seed %d memo=%v par=%d", seed, g.memo, g.par)
			opts := []core.Option{core.WithMemo(g.memo), core.WithParallelism(g.par)}

			base := core.NewTranslator(c.S.Spec, opts...)
			wantQ, wantF, wantErr := base.TranslateWithFilter(c.Query, core.AlgTDQM)

			cache := core.NewMatchCache(0)
			for _, variant := range []string{"cold", "warm"} {
				tr := core.NewTranslator(c.S.Spec, append(opts, core.WithMatchCache(cache))...)
				gotQ, gotF, gotErr := tr.TranslateWithFilter(c.Query, core.AlgTDQM)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s %s: err=%v, cache-free err=%v", name, variant, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if gotQ.String() != wantQ.String() {
					t.Errorf("%s %s: mapped query not byte-identical\n got: %s\nwant: %s",
						name, variant, gotQ, wantQ)
				}
				if gotF.String() != wantF.String() {
					t.Errorf("%s %s: residue not byte-identical\n got: %s\nwant: %s",
						name, variant, gotF, wantF)
				}
				if tr.Stats != base.Stats {
					t.Errorf("%s %s: Stats diverged from cache-free run\n got: %+v\nwant: %+v",
						name, variant, tr.Stats, base.Stats)
				}
			}
			if wantErr == nil {
				if st := cache.Stats(); st.Hits == 0 {
					t.Errorf("%s: warm cache run recorded no hits", name)
				}
			}
		}
	}
}
