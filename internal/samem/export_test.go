package samem

// DefinedCount returns the number of defined cells.
func (p *Page) DefinedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, d := range p.defined {
		if d {
			n++
		}
	}
	return n
}

// Full reports whether every cell of the page is defined.
func (p *Page) Full() bool { return p.DefinedCount() == len(p.vals) }

// PendingWaiters returns the number of queued deferred readers.
func (p *Page) PendingWaiters() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ws := range p.waiters {
		n += len(ws)
	}
	return n
}

// Count returns the number of written elements.
func (t *Tracker) Count() int {
	n := 0
	for _, w := range t.written {
		if w {
			n++
		}
	}
	return n
}
