// Package lru is the one bounded least-recently-used map of the tree.
// The serving layer's result table, the reference-stream cache and the
// compiled-kernel registry all keep their entries in one. A Cache is
// not safe for concurrent use: each owner guards it with its own
// mutex, because each owner also has state of its own to keep under
// that lock (in-flight entries, tenant counts).
package lru

// Cache maps keys to values and holds at most its capacity of them;
// adding past the bound evicts the least recently used entry.
type Cache[K comparable, V any] struct {
	capacity int
	onEvict  func(K, V)
	items    map[K]*node[K, V]
	// root is the sentinel of a circular list: root.next is the most
	// recently used entry, root.prev the least.
	root node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache bounded to capacity entries (values below
// one are taken as one). onEvict, when non-nil, is called with every
// entry Add evicts for capacity, after the entry has left the cache;
// Remove does not call it.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{capacity: max(capacity, 1), onEvict: onEvict, items: map[K]*node[K, V]{}}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns the value under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	n := c.items[k]
	if n == nil {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushFront(n)
	return n.val, true
}

// Peek returns the value under k without changing its recency.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	if n := c.items[k]; n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Add stores v under k as the most recently used entry, replacing any
// value k had, and evicts least recently used entries past capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	if n := c.items[k]; n != nil {
		n.val = v
		c.unlink(n)
		c.pushFront(n)
		return
	}
	n := &node[K, V]{key: k, val: v}
	c.items[k] = n
	c.pushFront(n)
	for len(c.items) > c.capacity {
		old := c.root.prev
		c.unlink(old)
		delete(c.items, old.key)
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
}

// Remove deletes the entry under k, reporting whether there was one.
func (c *Cache[K, V]) Remove(k K) bool {
	n := c.items[k]
	if n == nil {
		return false
	}
	c.unlink(n)
	delete(c.items, k)
	return true
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Each calls fn on every entry, most recently used first, without
// changing recency. fn must not modify the cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	for n := c.root.next; n != &c.root; n = n.next {
		fn(n.key, n.val)
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
