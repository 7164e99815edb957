package serve

import (
	"sync"

	"repro/internal/lru"
)

// flight is one canonical point's entry in the result table: pending
// while its execution runs, resolved once it succeeded. body and err
// are written, and resolved set, under the table's lock before done is
// closed; waiters read them after <-done, and lookup hands out the body
// of a resolved entry directly.
type flight struct {
	done     chan struct{}
	body     []byte
	err      error
	resolved bool
}

// resultTable is the result cache and the singleflight table in one:
// canonical point key → the point's flight. Under single assignment a
// point's body is a pure function of its key and is never invalidated,
// so "answered" and "being answered" need no separate structures. The
// capacity bounds pending and resolved entries alike; evicting a
// pending entry never strands its waiters (they hold the flight
// itself), it only lets a later request execute the point afresh.
// Bodies are immutable once stored; callers must not mutate them.
type resultTable struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *flight]
}

func newResultTable(capacity int) *resultTable {
	return &resultTable{entries: lru.New[string, *flight](capacity, nil)}
}

// outcome is what a lookup tells its caller to do.
type outcome int

const (
	hit  outcome = iota // resolved: the flight's body is the answer
	join                // pending: wait on the flight
	lead                // absent: the caller must execute the new flight
)

// lookup returns key's flight, adding a pending one when the key has
// none, and what the caller must do with it.
func (t *resultTable) lookup(key string) (*flight, outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if fl, ok := t.entries.Get(key); ok {
		if fl.resolved {
			return fl, hit
		}
		return fl, join
	}
	fl := &flight{done: make(chan struct{})}
	t.entries.Add(key, fl)
	return fl, lead
}

// settle records the outcome of fl's execution and wakes its waiters.
// A failed flight leaves the table, if it is still key's entry, so the
// next request retries instead of replaying the error.
func (t *resultTable) settle(key string, fl *flight, body []byte, err error) {
	t.mu.Lock()
	fl.body, fl.err, fl.resolved = body, err, err == nil
	if cur, ok := t.entries.Peek(key); err != nil && ok && cur == fl {
		t.entries.Remove(key)
	}
	t.mu.Unlock()
	close(fl.done)
}
