package cache

// Contains reports whether the page is cached, without touching recency
// state or statistics.
func (c *Cache) Contains(page int) bool { return c.resident(page) != nil }

// Len returns the number of cached pages.
func (c *Cache) Len() int { return c.used }
