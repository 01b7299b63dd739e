package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestInjectorDeterministicPerSource checks that the fault sequence drawn
// for one source is a pure function of (seed, source, call index), no
// matter how calls against other sources interleave.
func TestInjectorDeterministicPerSource(t *testing.T) {
	plan := FaultPlan{ErrProb: 0.4, DelayProb: 0.3, Delay: time.Microsecond}
	seq := func(interleave bool) []bool {
		in := NewInjector(7, plan)
		var out []bool
		for i := 0; i < 64; i++ {
			if interleave {
				in.Apply(context.Background(), "other")
			}
			err := in.Apply(context.Background(), "s1")
			out = append(out, err != nil)
		}
		return out
	}
	a, b := seq(false), seq(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: fault decision for s1 changed when interleaved with another source", i)
		}
	}
}

func TestInjectorTypedErrors(t *testing.T) {
	in := NewInjector(1, FaultPlan{ErrProb: 1})
	err := in.Apply(context.Background(), "s")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if in.Errors() != 1 {
		t.Fatalf("Errors = %d, want 1", in.Errors())
	}
}

func TestInjectorStallHonorsContext(t *testing.T) {
	in := NewInjector(1, FaultPlan{StallProb: 1, Stall: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Apply(ctx, "s")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("stall ignored context cancellation")
	}
}

func TestZeroPlanInjectsNothing(t *testing.T) {
	in := NewInjector(3, FaultPlan{})
	for i := 0; i < 100; i++ {
		if err := in.Apply(context.Background(), "s"); err != nil {
			t.Fatalf("zero plan injected a fault: %v", err)
		}
	}
	if in.Errors()+in.Stalls()+in.Delays() != 0 {
		t.Fatal("zero plan recorded injections")
	}
}

func TestInjectorErrorBurst(t *testing.T) {
	in := NewInjector(1, FaultPlan{})
	in.SetErrorBurst("s", 3)
	for i := 0; i < 3; i++ {
		if err := in.Apply(context.Background(), "s"); !errors.Is(err, ErrInjected) {
			t.Fatalf("burst call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := in.Apply(context.Background(), "s"); err != nil {
		t.Fatalf("post-burst call: err = %v, want recovery", err)
	}
	if in.Errors() != 3 {
		t.Fatalf("Errors = %d, want 3", in.Errors())
	}
	// Bursts are per source.
	in.SetErrorBurst("s", 1)
	if err := in.Apply(context.Background(), "other"); err != nil {
		t.Fatalf("burst leaked across sources: %v", err)
	}
}

func TestInjectorPinnedLatency(t *testing.T) {
	in := NewInjector(1, FaultPlan{})
	in.SetLatency("slow", 20*time.Millisecond)
	start := time.Now()
	if err := in.Apply(context.Background(), "slow"); err != nil {
		t.Fatalf("pinned latency errored: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("pinned latency slept only %v", d)
	}
	if in.Latencies() != 1 {
		t.Fatalf("Latencies = %d, want 1", in.Latencies())
	}
	// Other sources are unaffected; clearing removes the pin.
	start = time.Now()
	if err := in.Apply(context.Background(), "fast"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("unpinned source slept %v", d)
	}
	in.SetLatency("slow", 0)
	start = time.Now()
	if err := in.Apply(context.Background(), "slow"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("cleared pin still slept %v", d)
	}
	// A pinned sleep honors context cancellation.
	in.SetLatency("slow", time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := in.Apply(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
