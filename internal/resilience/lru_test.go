package resilience

import (
	"fmt"
	"testing"
)

func TestLRUPlainEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewLRU[string, int](2, false)
	c.Add("a", 1, nil)
	c.Add("b", 2, nil)
	if _, ok := c.Get("a"); !ok { // promote a: b is now the LRU entry
		t.Fatal("a missing before capacity was reached")
	}
	if added, evicted := c.Add("c", 3, nil); !added || !evicted {
		t.Fatalf("Add(c) = (%v, %v), want (true, true)", added, evicted)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; want the LRU entry evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = (%d, %v), want (1, true)", v, ok)
	}
	// Refreshing a resident key neither grows the cache nor evicts.
	if added, evicted := c.Add("a", 10, nil); !added || evicted {
		t.Errorf("refresh Add(a) = (%v, %v), want (true, false)", added, evicted)
	}
	if v, _ := c.Get("a"); v != 10 || c.Len() != 2 {
		t.Errorf("after refresh: a = %d, Len = %d; want 10, 2", v, c.Len())
	}
}

// TestLRUSegmentedVictim pins the victim rule: the least recently used entry
// not hit since insertion goes first, and the protected LRU entry only when
// every entry has been hit.
func TestLRUSegmentedVictim(t *testing.T) {
	c := NewLRU[string, int](3, true)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i, nil)
	}
	c.Get("a") // protect a, the oldest entry
	var victims []string
	record := func(_, victim string) bool { victims = append(victims, victim); return true }
	c.Add("d", 3, record) // probation holds c, b (front to back): b goes
	c.Add("e", 4, record) // then c
	c.Add("f", 5, record) // then d, still before the protected a
	if want := "[b c d]"; fmt.Sprint(victims) != want {
		t.Fatalf("victims = %v, want %s", victims, want)
	}
	c.Get("e")
	c.Get("f")
	// Everything is protected now: plain recency decides.
	victims = nil
	c.Add("g", 6, record)
	if want := "[a]"; fmt.Sprint(victims) != want {
		t.Fatalf("victims = %v, want %s (protected LRU once probation is empty)", victims, want)
	}
}

func TestLRUAdmitRefusalLeavesCacheUnchanged(t *testing.T) {
	c := NewLRU[string, int](1, true)
	c.Add("a", 1, nil)
	refuse := func(_, _ string) bool { return false }
	if added, evicted := c.Add("b", 2, refuse); added || evicted {
		t.Fatalf("refused Add(b) = (%v, %v), want (false, false)", added, evicted)
	}
	if _, ok := c.Get("a"); !ok || c.Len() != 1 {
		t.Error("a refused insert disturbed the resident entry")
	}
	// A resident key is refreshed without asking admission.
	if added, _ := c.Add("a", 9, refuse); !added {
		t.Error("refresh of a resident key consulted admission")
	}
}

func TestLRUDeleteFunc(t *testing.T) {
	c := NewLRU[int, int](8, true)
	for i := 0; i < 6; i++ {
		c.Add(i, i, nil)
	}
	c.Get(0)
	c.Get(2)
	if n := c.DeleteFunc(func(k int) bool { return k%2 == 0 }); n != 3 {
		t.Fatalf("DeleteFunc removed %d, want 3", n)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	for i := 0; i < 6; i++ {
		if _, ok := c.Get(i); ok != (i%2 == 1) {
			t.Errorf("key %d resident = %v", i, ok)
		}
	}
}
