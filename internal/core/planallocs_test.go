package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestPlanAllocCeilings pins TDQM's allocation budgets on the
// dependency-degree fixture: the interpretive path must hold the gains from
// the spec's static translation plan (rules.TranslationPlan), the pooled
// simplifyEDNF nullification scratch and the reused product-term constraint
// set in PSafe's scan. Measured values at the time of writing: e=2 ≈ 80.3k,
// e=0 ≈ 3.9k; ceilings carry ~30% headroom so incidental churn doesn't
// flake, while an accidental un-pooling trips them immediately.
func TestPlanAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		e       int
		ceiling float64
		runs    int
	}{
		{"interpretive/e=2/k=8", 2, 105_000, 10},
		{"interpretive/e=0/k=8", 0, 5_500, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, q := workload.DependencyConjunction(4, 8, tc.e)
			tr := core.NewTranslator(s.Spec)
			if _, err := tr.TDQM(q); err != nil { // warm-up: compiles the spec
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(tc.runs, func() {
				if _, err := tr.TDQM(q); err != nil {
					t.Fatal(err)
				}
			})
			if got > tc.ceiling {
				t.Errorf("%s: %.0f allocs/op exceeds pinned ceiling %.0f", tc.name, got, tc.ceiling)
			}
		})
	}
}
