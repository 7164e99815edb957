package cluster

// supervisor.go — shard process lifecycle. The Supervisor spawns N
// local shard processes (each a full lfksimd daemon listening on an
// ephemeral port), discovers their addresses through per-shard addr
// files (written temp-then-rename by the shard once its listener is
// up, so a partial write is never read), and stops them. The chaos
// tests kill and restart shards through probes in export_test.go. It
// never auto-restarts: deciding whether
// a dead shard comes back is policy, and the Router must stay correct
// either way — that is the point of the failover path.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// SupervisorOptions configures StartSupervisor.
type SupervisorOptions struct {
	// Shards is the number of shard processes to spawn (>= 1).
	Shards int
	// Command builds the command for shard id, which must serve HTTP on
	// an ephemeral port and write "host:port\n" to addrFile (atomically:
	// temp file + rename) once the listener is up. The supervisor sets
	// nothing else up — environment, binary, and flags are the caller's.
	Command func(id int, addrFile string) *exec.Cmd
}

// startTimeout bounds the wait for each shard's addr file.
const startTimeout = 15 * time.Second

// Supervisor owns a fixed-size set of shard processes and the
// temporary directory their addr files live in. Safe for concurrent
// use.
type Supervisor struct {
	opts SupervisorOptions
	dir  string

	mu     sync.Mutex
	shards []*shardProc
}

type shardProc struct {
	addr    string
	cmd     *exec.Cmd
	waitCh  chan struct{} // closed once cmd.Wait returns (child reaped)
	waitErr error         // cmd.Wait's result; read only after <-waitCh
	dead    bool
}

// StartSupervisor spawns every shard and waits until each has
// published its address. On any failure it stops what it started.
func StartSupervisor(opts SupervisorOptions) (*Supervisor, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", opts.Shards)
	}
	if opts.Command == nil {
		return nil, fmt.Errorf("cluster: SupervisorOptions.Command is required")
	}
	dir, err := os.MkdirTemp("", "cluster-shards-*")
	if err != nil {
		return nil, fmt.Errorf("cluster: addr dir: %w", err)
	}
	s := &Supervisor{opts: opts, dir: dir, shards: make([]*shardProc, opts.Shards)}
	for i := range s.shards {
		sp, err := s.spawn(i)
		if err != nil {
			s.Stop()
			return nil, err
		}
		s.shards[i] = sp
	}
	return s, nil
}

func (s *Supervisor) spawn(id int) (*shardProc, error) {
	addrFile := filepath.Join(s.dir, fmt.Sprintf("shard-%d.addr", id))
	_ = os.Remove(addrFile) // a restart must not read the old address
	cmd := s.opts.Command(id, addrFile)
	if cmd == nil {
		return nil, fmt.Errorf("cluster: Command(%d) returned nil", id)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: starting shard %d: %w", id, err)
	}
	sp := &shardProc{cmd: cmd, waitCh: make(chan struct{})}
	go func() { sp.waitErr = cmd.Wait(); close(sp.waitCh) }()

	deadline := time.Now().Add(startTimeout)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			sp.addr = string(trimNL(b))
			return sp, nil
		}
		select {
		case <-sp.waitCh:
			return nil, fmt.Errorf("cluster: shard %d exited before publishing its address: %v", id, sp.waitErr)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			return nil, fmt.Errorf("cluster: shard %d did not publish %s within %v", id, addrFile, startTimeout)
		}
	}
}

func trimNL(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// Shards returns the shard count.
func (s *Supervisor) Shards() int { return len(s.shards) }

// Addr returns shard id's published listen address ("host:port").
func (s *Supervisor) Addr(id int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[id].addr
}

// PID returns shard id's process ID (-1 if it is dead), so operators
// and chaos harnesses can signal the process directly.
func (s *Supervisor) PID(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.shards[id]
	if sp.dead || sp.cmd.Process == nil {
		return -1
	}
	return sp.cmd.Process.Pid
}

// Stop terminates every live shard — SIGTERM first (shards drain like
// any daemon), SIGKILL after 5s — reaps them all and removes the addr
// directory. Safe to call twice.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	shards := append([]*shardProc(nil), s.shards...)
	s.mu.Unlock()
	for _, sp := range shards {
		if sp == nil || sp.dead {
			continue
		}
		sp.dead = true
		_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, sp := range shards {
		if sp == nil || sp.waitCh == nil {
			continue
		}
		select {
		case <-sp.waitCh:
		case <-time.After(5 * time.Second):
			_ = sp.cmd.Process.Kill()
			<-sp.waitCh
		}
	}
	_ = os.RemoveAll(s.dir)
}
