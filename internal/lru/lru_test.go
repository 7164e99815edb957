package lru

import (
	"fmt"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := New[string, string](2, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("Get on empty cache hit")
	}
	c.Add("a", "A")
	c.Add("b", "B")
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get a = %q, %v", v, ok)
	}
	// "a" was refreshed, so adding "c" evicts "b".
	c.Add("c", "C")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; recency not tracked")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Re-adding an existing key replaces the value without growing.
	c.Add("a", "A2")
	if v, _ := c.Get("a"); v != "A2" {
		t.Fatalf("re-add did not replace value: %q", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after re-add = %d, want 2", c.Len())
	}
	// Peek reads without refreshing: "c" stays least recent and goes
	// next.
	if v, ok := c.Peek("c"); !ok || v != "C" {
		t.Fatalf("Peek c = %q, %v", v, ok)
	}
	c.Add("d", "D")
	if _, ok := c.Peek("c"); ok {
		t.Fatal("c survived eviction; Peek refreshed it")
	}
	if !c.Remove("a") || c.Remove("a") || c.Len() != 1 {
		t.Fatalf("Remove: Len = %d, want 1 with a removed once", c.Len())
	}
	var order []string
	c.Add("e", "E")
	c.Each(func(k, _ string) { order = append(order, k) })
	if fmt.Sprint(order) != "[e d]" {
		t.Fatalf("Each order = %v, want most recent first [e d]", order)
	}
}

func TestLRUBound(t *testing.T) {
	c := New[string, int](8, nil)
	for i := 0; i < 100; i++ {
		c.Add(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want the capacity 8", c.Len())
	}
	for i := 92; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d missing", i)
		}
	}
}

// TestLRUEvictCallback: the callback sees every capacity eviction,
// oldest first, after the entry has left the cache, and never a
// removal or a replacement.
func TestLRUEvictCallback(t *testing.T) {
	var evicted []string
	var c *Cache[string, int]
	c = New(2, func(k string, v int) {
		if _, ok := c.Peek(k); ok {
			t.Errorf("callback for %s ran while it was still cached", k)
		}
		evicted = append(evicted, fmt.Sprintf("%s=%d", k, v))
	})
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // replace: no eviction
	c.Remove("b")  // removal: no callback
	c.Add("c", 3)
	c.Add("d", 4) // evicts a
	c.Add("e", 5) // evicts c
	if fmt.Sprint(evicted) != "[a=10 c=3]" {
		t.Fatalf("evicted %v, want [a=10 c=3]", evicted)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}
