package cache

// Contains reports whether the page is cached, without touching recency
// state or statistics.
func (c *Cache) Contains(key Key) bool {
	_, ok := c.entries[key]
	return ok
}
