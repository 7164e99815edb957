package cluster

import "fmt"

// Kill delivers SIGKILL to shard id and reaps it: the chaos primitive.
// No drain, no warning — the shard vanishes mid-request, exactly like
// a machine failure.
func (s *Supervisor) Kill(id int) error {
	s.mu.Lock()
	sp := s.shards[id]
	if sp.dead {
		s.mu.Unlock()
		return nil
	}
	sp.dead = true
	s.mu.Unlock()
	if err := sp.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("cluster: killing shard %d: %w", id, err)
	}
	<-sp.waitCh // reap; the error is the kill signal, not a failure
	return nil
}

// Restart respawns shard id (which must be dead) and waits for its new
// address: the warm-start primitive — the new process shares the old
// one's capture-store directory via whatever Command wires up.
func (s *Supervisor) Restart(id int) error {
	s.mu.Lock()
	if !s.shards[id].dead {
		s.mu.Unlock()
		return fmt.Errorf("cluster: restart of live shard %d (Kill it first)", id)
	}
	s.mu.Unlock()
	sp, err := s.spawn(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.shards[id] = sp
	s.mu.Unlock()
	return nil
}
