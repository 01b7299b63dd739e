package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mediator"
)

func tr() *mediator.Translation { return &mediator.Translation{} }

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2, nil)
	a, b, d := tr(), tr(), tr()
	c.Add("a", a)
	c.Add("b", b)
	if _, ok := c.Get("a"); !ok { // promote a; b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Add("d", d)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if got, ok := c.Get("a"); !ok || got != a {
		t.Error("a should have survived eviction")
	}
	if got, ok := c.Get("d"); !ok || got != d {
		t.Error("d should be resident")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Errorf("Evictions = %d, want 1", c.Evictions())
	}
}

func TestLRURefreshDoesNotGrow(t *testing.T) {
	c := newLRU(2, nil)
	v1, v2 := tr(), tr()
	c.Add("a", v1)
	c.Add("a", v2)
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 after refresh", c.Len())
	}
	if got, _ := c.Get("a"); got != v2 {
		t.Error("refresh should replace the value")
	}
}

func TestFlightGroupCollapsesConcurrentCalls(t *testing.T) {
	var g flightGroup
	var calls atomic.Int32
	running := make(chan struct{})
	release := make(chan struct{})
	want := tr()

	results := make(chan *mediator.Translation, 16)
	sharedCount := atomic.Int32{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := g.Do("k", func() (*mediator.Translation, error) {
			calls.Add(1)
			close(running)
			<-release
			return want, nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- v
	}()
	<-running // the computation is in flight; joiners must wait on it
	for i := 0; i < 15; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (*mediator.Translation, error) {
				calls.Add(1)
				return tr(), nil
			})
			if err != nil {
				t.Error(err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results <- v
		}()
	}
	// Release only once all 15 joiners are blocked on the in-flight call,
	// so the collapse assertion is deterministic.
	for deadline := time.Now().Add(10 * time.Second); ; {
		g.mu.Lock()
		w := 0
		if c := g.m["k"]; c != nil {
			w = c.waiters
		}
		g.mu.Unlock()
		if w >= 15 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d of 15 joiners blocked", w)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if sharedCount.Load() != 15 {
		t.Errorf("shared callers = %d, want 15", sharedCount.Load())
	}
	for v := range results {
		if v != want {
			t.Error("caller received a different translation instance")
		}
	}
}

func TestFlightGroupErrorsShared(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	_, err, _ := g.Do("k", func() (*mediator.Translation, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	// The key is released after completion: a later call runs fn again.
	v, err, shared := g.Do("k", func() (*mediator.Translation, error) { return tr(), nil })
	if err != nil || v == nil || shared {
		t.Errorf("retry after error = (%v, %v, shared=%v)", v, err, shared)
	}
}
