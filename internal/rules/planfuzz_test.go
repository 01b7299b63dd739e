package rules_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzPlanEquivalence cross-checks the compiled translation path — the
// spec's static TranslationPlan fast path — through a shared cross-request
// MatchCache against the cache-free path over random query shapes: a
// conformance case picked by a qcheck replay string plus a
// dependency-conjunction sweep shape picked by (e, k). For each shape, a
// translator on a cold and then a warm cache must reproduce the cache-free
// mapped query, residue filter, and Stats byte-for-byte — the contract the
// differential suite pins on fixed seeds, explored here over an open-ended
// shape space.
func FuzzPlanEquivalence(f *testing.F) {
	for _, seed := range []string{"qc1:1", "qc1:7", "qc1:5k", "qc1:12", "qc1:2s"} {
		f.Add(seed, uint8(0), uint8(2))
		f.Add(seed, uint8(2), uint8(8))
	}
	f.Add("qc1:3", uint8(1), uint8(4))

	f.Fuzz(func(t *testing.T, replay string, e, k uint8) {
		// Shape 1: conformance case from the replay string, if it parses.
		if seed, err := conformance.ParseSeedString(replay); err == nil {
			c := conformance.NewCase(seed)
			base := core.NewTranslator(c.S.Spec)
			wantQ, wantF, wantErr := base.TranslateWithFilter(c.Query, core.AlgTDQM)

			cache := core.NewMatchCache(0)
			for pass := 0; pass < 2; pass++ {
				tr := core.NewTranslator(c.S.Spec, core.WithMatchCache(cache))
				gotQ, gotF, gotErr := tr.TranslateWithFilter(c.Query, core.AlgTDQM)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s pass %d: err=%v, cache-free err=%v", replay, pass, gotErr, wantErr)
				}
				if wantErr != nil {
					break
				}
				if gotQ.String() != wantQ.String() || gotF.String() != wantF.String() {
					t.Errorf("%s pass %d: cached translation diverged\n got: %s | %s\nwant: %s | %s",
						replay, pass, gotQ, gotF, wantQ, wantF)
				}
				if tr.Stats != base.Stats {
					t.Errorf("%s pass %d: Stats diverged\n got: %+v\nwant: %+v",
						replay, pass, tr.Stats, base.Stats)
				}
			}
		}

		// Shape 2: dependency-conjunction sweep shape from (e, k), the
		// workload family whose e>0 corner stresses PSafe and EDNF.
		n := 2 + int(k%3)
		s, q := workload.DependencyConjunction(n, 2+int(k%7), int(e%4))
		base := core.NewTranslator(s.Spec)
		wantQ, err := base.TDQM(q)
		if err != nil {
			t.Fatalf("e=%d k=%d: cache-free TDQM: %v", e, k, err)
		}
		tr := core.NewTranslator(s.Spec, core.WithMatchCache(core.NewMatchCache(0)))
		for pass := 0; pass < 2; pass++ {
			tr.ResetStats()
			gotQ, err := tr.TDQM(q)
			if err != nil {
				t.Fatalf("e=%d k=%d pass %d: %v", e, k, pass, err)
			}
			if gotQ.String() != wantQ.String() {
				t.Errorf("e=%d k=%d pass %d: cached TDQM diverged\n got: %s\nwant: %s",
					e, k, pass, gotQ, wantQ)
			}
			if tr.Stats != base.Stats {
				t.Errorf("e=%d k=%d pass %d: Stats diverged\n got: %+v\nwant: %+v",
					e, k, pass, tr.Stats, base.Stats)
			}
		}
	})
}
