package obs_test

import (
	"fmt"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestConformanceTraceInvariants runs the conformance harness's generated
// scenario queries under tracing and checks, for every case and algorithm:
//
//   - tracing is transparent: the translated query, filter, and Stats are
//     identical to an untraced run;
//   - the span tree satisfies obs.Verify — kept + suppressed = candidates
//     at every SCM span and child essentialDNFSize <= parent's everywhere.
func TestConformanceTraceInvariants(t *testing.T) {
	const cases = 40
	for seed := int64(1); seed <= cases; seed++ {
		c := conformance.NewCase(seed)
		for _, alg := range []string{core.AlgTDQM, core.AlgDNF} {
			name := fmt.Sprintf("%s/%s", c.SeedString(), alg)

			plain := core.NewTranslator(c.S.Spec)
			wantQ, wantF, wantErr := plain.TranslateWithFilter(c.Query, alg)

			tracer := obs.NewTracer()
			traced := core.NewTranslator(c.S.Spec, core.WithTracer(tracer),
				core.WithMetrics(obs.NewTranslationMetrics(obs.NewRegistry())))
			gotQ, gotF, gotErr := traced.TranslateWithFilter(c.Query, alg)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: traced err = %v, untraced err = %v", name, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if gotQ.String() != wantQ.String() || gotF.String() != wantF.String() {
				t.Errorf("%s: tracing changed the translation:\n  traced   %s | %s\n  untraced %s | %s",
					name, gotQ, gotF, wantQ, wantF)
			}
			if traced.Stats != plain.Stats {
				t.Errorf("%s: tracing changed Stats: traced %+v, untraced %+v",
					name, traced.Stats, plain.Stats)
			}
			root := tracer.Root()
			if root == nil {
				t.Fatalf("%s: traced translation recorded no spans", name)
			}
			if err := obs.Verify(root); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
