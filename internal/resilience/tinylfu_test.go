package resilience

import (
	"fmt"
	"sync"
	"testing"
)

func TestSketchEstimateGrows(t *testing.T) {
	s := NewSketch(64, 1)
	if got := s.Estimate("cold"); got != 0 {
		t.Fatalf("untouched Estimate = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		s.Touch("hot")
	}
	got := s.Estimate("hot")
	if got < 5 || got > sketchMaxCount {
		t.Fatalf("Estimate after 5 touches = %d, want in [5, %d]", got, sketchMaxCount)
	}
}

func TestSketchSaturates(t *testing.T) {
	s := NewSketch(1<<10, 1) // large limit: no aging during this test
	for i := 0; i < 100; i++ {
		s.Touch("k")
	}
	if got := s.Estimate("k"); got != sketchMaxCount {
		t.Fatalf("saturated Estimate = %d, want %d", got, sketchMaxCount)
	}
}

func TestSketchAgingHalves(t *testing.T) {
	s := NewSketch(1, 1)
	s.limit = 20 // halve after 20 touches
	for i := 0; i < 10; i++ {
		s.Touch("k")
	}
	before := s.Estimate("k")
	if before < 8 {
		t.Fatalf("pre-aging Estimate = %d, want ≈10", before)
	}
	for i := 0; i < 10; i++ {
		s.Touch("other")
	}
	after := s.Estimate("k")
	if after > before/2+1 {
		t.Fatalf("post-aging Estimate = %d, want ≈%d", after, before/2)
	}
}

func TestSketchAdmitProtectsHotVictim(t *testing.T) {
	s := NewSketch(64, 1)
	for i := 0; i < 4; i++ {
		s.Touch("victim")
	}
	s.Touch("scan-key")
	if s.Admit("scan-key", "victim") {
		t.Fatal("once-seen scan key admitted over a 4-touch victim")
	}
	// Ties keep the incumbent.
	if s.Admit("victim", "victim") {
		t.Fatal("tie admitted the candidate")
	}
	// A hotter candidate displaces a colder victim.
	for i := 0; i < 8; i++ {
		s.Touch("rising")
	}
	if !s.Admit("rising", "victim") {
		t.Fatal("8-touch candidate rejected against a 4-touch victim")
	}
}

func TestSketchScanResistance(t *testing.T) {
	// A resident working set touched repeatedly must win admission
	// comparisons against a flood of one-off scan keys.
	s := NewSketch(128, 1)
	hot := make([]string, 16)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
	}
	for round := 0; round < 4; round++ {
		for _, k := range hot {
			s.Touch(k)
		}
	}
	rejected := 0
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("scan-%d", i)
		s.Touch(k)
		if !s.Admit(k, hot[i%len(hot)]) {
			rejected++
		}
	}
	// Sketch collisions allow a few false admissions; the overwhelming
	// majority of scan keys must lose to the hot set.
	if rejected < 950 {
		t.Fatalf("only %d/1000 scan keys rejected; admission is not scan-resistant", rejected)
	}
}

func TestSketchConcurrentSmoke(t *testing.T) {
	s := NewSketch(256, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k-%d", i%64)
				s.Touch(k)
				_ = s.Estimate(k)
				_ = s.Admit(k, "k-0")
			}
		}(g)
	}
	wg.Wait()
}
