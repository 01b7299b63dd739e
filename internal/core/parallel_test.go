package core_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestParallelMatchesSequential is the parallel branch-mapping contract:
// with a worker pool configured, TDQM and DNF produce EqualCanonical
// queries, identical residues, and — because child translators merge in
// deterministic branch order — identical Stats to the sequential path,
// across the conformance seed corpus. Run under -race in CI, this also
// exercises the shared memo and the lazily published qtree caches from
// concurrent branches.
func TestParallelMatchesSequential(t *testing.T) {
	algs := []string{core.AlgTDQM, core.AlgDNF}
	for seed := int64(1); seed <= 40; seed++ {
		c := conformance.NewCase(seed)
		for _, alg := range algs {
			seq := core.NewTranslator(c.S.Spec)
			wantQ, wantF, wantErr := seq.TranslateWithFilter(c.Query, alg)

			par := core.NewTranslator(c.S.Spec, core.WithParallelism(8))
			gotQ, gotF, gotErr := par.TranslateWithFilter(c.Query, alg)

			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %s: parallel err=%v, sequential err=%v", seed, alg, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if !gotQ.EqualCanonical(wantQ) {
				t.Errorf("seed %d (%s) %s: parallel mapped query differs\n got: %s\nwant: %s",
					seed, c.SeedString(), alg, gotQ, wantQ)
			}
			if !gotF.EqualCanonical(wantF) {
				t.Errorf("seed %d (%s) %s: parallel residue differs\n got: %s\nwant: %s",
					seed, c.SeedString(), alg, gotF, wantF)
			}
			if par.Stats != seq.Stats {
				t.Errorf("seed %d %s: parallel Stats diverged\n got: %+v\nwant: %+v",
					seed, alg, par.Stats, seq.Stats)
			}
		}
	}
}

// TestParallelSkippedUnderTracing pins the bypass rule: a traced translation
// must stay sequential (span trees are ordered artifacts), and its trace
// must equal the trace of a translator with no parallelism configured.
func TestParallelSkippedUnderTracing(t *testing.T) {
	c := conformance.NewCase(5)

	run := func(workers int) string {
		tracer := obs.NewTracer()
		tr := core.NewTranslator(c.S.Spec, core.WithParallelism(workers), core.WithTracer(tracer))
		if _, _, err := tr.TranslateWithFilter(c.Query, core.AlgTDQM); err != nil {
			t.Fatal(err)
		}
		if err := obs.Verify(tracer.Root()); err != nil {
			t.Fatalf("workers=%d: trace fails invariants: %v", workers, err)
		}
		js, err := tracer.Root().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}

	if got, want := run(8), run(1); got != want {
		t.Errorf("traced translation differs with a worker pool configured:\n got: %s\nwant: %s", got, want)
	}
}
