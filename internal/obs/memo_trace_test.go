package obs_test

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/sources"
)

// TestTracingWithMemoMatchesMemoFree pins the memo's bypass-or-record
// contract under tracing: for every golden query and source spec, the span
// tree of a traced translation with the matching memo enabled (the default)
// is byte-identical to one with the memo disabled, and satisfies the trace
// invariants. This is what keeps the golden trace files of golden_test.go
// stable with the memo on by default.
func TestTracingWithMemoMatchesMemoFree(t *testing.T) {
	for _, tc := range goldenCases {
		q := qparse.MustParse(tc.query)
		for _, src := range []*sources.Source{
			sources.NewT1(), sources.NewT2(), sources.NewAmazon(), sources.NewClbooks(),
		} {
			trace := func(memo bool) []byte {
				tracer := obs.NewTracer()
				tr := core.NewTranslator(src.Spec, core.WithMemo(memo), core.WithTracer(tracer))
				if _, _, err := tr.TranslateWithFilter(q, core.AlgTDQM); err != nil {
					t.Fatalf("%s over %s: %v", tc.name, src.Name, err)
				}
				if err := obs.Verify(tracer.Root()); err != nil {
					t.Fatalf("%s over %s (memo=%v): trace fails invariants: %v",
						tc.name, src.Name, memo, err)
				}
				js, err := json.Marshal(tracer.Root())
				if err != nil {
					t.Fatal(err)
				}
				return js
			}
			on, off := trace(true), trace(false)
			if string(on) != string(off) {
				t.Errorf("%s over %s: memo-on trace differs from memo-off trace\n on: %s\noff: %s",
					tc.name, src.Name, on, off)
			}
		}
	}
}
