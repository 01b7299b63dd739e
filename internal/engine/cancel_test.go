package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/qparse"
	"repro/internal/workload"
)

// TestSelectAccessCancelled: a selection through an Access stops at its
// first context poll, on a probed plan and on the fallback scan alike, and
// reports the cancellation wrapped like any other selection error.
func TestSelectAccessCancelled(t *testing.T) {
	rel := workload.AccessRelation(4000)
	acc := engine.BuildAccess(rel)
	ev := engine.NewEvaluator()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct{ query, plan string }{
		{`[cat = 7]`, "eq(cat):20"},
		{`[cat != 7]`, "scan"},
	} {
		q := qparse.MustParse(tc.query)
		if got := acc.PlanQuery(q, ev).Describe(); got != tc.plan {
			t.Fatalf("%s: plan %q, want %q", tc.query, got, tc.plan)
		}
		_, err := rel.SelectAccess(ctx, q, ev, acc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got error %v, want context.Canceled", tc.query, err)
		}
		if want := "engine: selecting from " + rel.Name + ": "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q, want prefix %q", tc.query, err, want)
		}
	}
}
