package serve

// CacheLen returns the number of cached result bodies, not counting
// pending entries.
func (e *Engine) CacheLen() int {
	t := e.results
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	t.entries.Each(func(_ string, fl *flight) {
		if fl.resolved {
			n++
		}
	})
	return n
}
