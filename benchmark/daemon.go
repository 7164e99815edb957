package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon.go — the program under test for the daemon workloads: a
// spawned cmd/lfksimd process (plus its shard children in router mode),
// observed only from outside: its HTTP endpoints and /proc.

// daemon is one running lfksimd.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	addr   string // host:port
	spawn  time.Time
	exited chan struct{}
}

// startDaemon spawns bin in dir (its scratch space: addr file, stderr
// log, TMPDIR, optional capture dir) and waits until /healthz answers.
// router > 0 fronts that many shards.
func startDaemon(bin, dir string, router int, captureDir string) (*daemon, error) {
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err // a stale file would name a dead daemon's port
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if router > 0 {
		args = append(args, "-router", strconv.Itoa(router))
	}
	if captureDir != "" {
		args = append(args, "-capture-dir", captureDir)
	}
	logf, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Two cores for the program under test whatever the host offers, and
	// every temp file inside the checkout.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2", "TMPDIR="+filepath.Join(dir, "tmp"))
	// Own process group, so a router's shards can be reaped with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	d := &daemon{cmd: cmd, spawn: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() { _ = cmd.Wait(); close(d.exited) }()

	deadline := time.Now().Add(30 * time.Second)
	for d.addr == "" {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lfksimd exited during start-up; see %s", logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("lfksimd did not publish its address within 30s")
		}
	}
	d.base = "http://" + d.addr
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("lfksimd /healthz did not answer within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for a clean shutdown, waits for the process to end, and
// kills the whole process group if it does not.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
	}
	// The group outlives a router that died without stopping its shards.
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
	http.DefaultClient.CloseIdleConnections()
}

// shard is one engine process behind a router.
type shard struct {
	Addr string `json:"addr"`
	PID  int    `json:"pid"`
}

// shards lists the router's shard processes from its /healthz (empty
// for a single node).
func (d *daemon) shards() ([]shard, error) {
	var body struct {
		Shards []shard `json:"shards"`
	}
	if err := getJSON(d.base+"/healthz", &body); err != nil {
		return nil, err
	}
	return body.Shards, nil
}

// engines returns the base URLs of the processes that execute points:
// the shards of a router, or the single node itself.
func (d *daemon) engines() ([]string, error) {
	shs, err := d.shards()
	if err != nil {
		return nil, err
	}
	if len(shs) == 0 {
		return []string{d.base}, nil
	}
	var out []string
	for _, s := range shs {
		out = append(out, "http://"+s.Addr)
	}
	return out, nil
}

// pids returns the daemon's process tree.
func (d *daemon) pids() ([]int, error) {
	out := []int{d.cmd.Process.Pid}
	shs, err := d.shards()
	if err != nil {
		return nil, err
	}
	for _, s := range shs {
		out = append(out, s.PID)
	}
	return out, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// snapshot is one process's registry and Go runtime counters.
type snapshot struct {
	obs.Snapshot
	Mem runtime.MemStats
}

// snap reads GET /metrics and the memstats of GET /debug/vars.
func snap(base string) (*snapshot, error) {
	var s snapshot
	if err := getJSON(base+"/metrics", &s.Snapshot); err != nil {
		return nil, err
	}
	var vars struct {
		Mem runtime.MemStats `json:"memstats"`
	}
	if err := getJSON(base+"/debug/vars", &vars); err != nil {
		return nil, err
	}
	s.Mem = vars.Mem
	return &s, nil
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux port Go supports.
const clkTck = 100

// cpuSeconds sums user+system CPU time of the given processes.
func cpuSeconds(pids []int) (float64, error) {
	var ticks uint64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name, which may hold spaces.
		rest := b[bytes.LastIndexByte(b, ')')+2:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", pid)
		}
		ut, err1 := strconv.ParseUint(f[11], 10, 64)
		st, err2 := strconv.ParseUint(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
		}
		ticks += ut + st
	}
	return float64(ticks) / clkTck, nil
}

// peakRSSMB sums the high-water RSS of the given processes.
func peakRSSMB(pids []int) (float64, error) {
	var kb float64
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				kb += v
				found = true
				break
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
		}
	}
	return kb / 1024, nil
}

// conn is one keep-alive HTTP/1.1 connection of a closed-loop client.
// It writes requests by hand and reads replies with net/http's parser,
// so the load generator spends as little of the shared cores as it can.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// post sends one request and returns the status and body. The body is
// valid until the next call.
func (c *conn) post(path string, body []byte) (int, []byte, error) {
	c.out = c.out[:0]
	c.out = append(c.out, "POST "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
