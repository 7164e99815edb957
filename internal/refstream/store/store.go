// Package store is the disk-backed capture store: the cluster-scale
// version of the in-process stream cache. Under single assignment a
// reference stream is an immutable, pure function of its (kernel,
// clamped N) pair, so the pair names the file: a shard that captures a
// stream persists its canonical encoding as <kernel key>-<n>.rsc, and
// any shard that restarts — or any peer pointed at the same directory
// — warm-starts from that file instead of re-executing the capture.
// The store keeps no stream and no index in memory; each Load reads
// one file, and the caller's bounded refstream.Cache is the only place
// a decoded stream lives.
//
// Crash safety is write-temp, fsync, then rename: a file appears under
// its final name only after its bytes are on disk, so a SIGKILL
// mid-write leaves a ".tmp-*" orphan that nothing reads. Each file
// ends in the SHA-256 of its encoding; Load checks that digest and
// fully validates the encoding before trusting it. A truncated or
// corrupt file is counted and missed, never served, and the next
// capture of its key overwrites it.
package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
)

// Metric names for the store family. Counters except where noted.
const (
	MetricHits       = "store.hits"        // loads served from disk
	MetricMisses     = "store.misses"      // loads with no usable capture file
	MetricPuts       = "store.puts"        // captures persisted
	MetricPutErrors  = "store.put_errors"  // failed persists (disk errors)
	MetricLoadErrors = "store.load_errors" // unreadable/corrupt files missed
	MetricEntries    = "store.entries"     // gauge: capture files on disk, as this process has seen them
)

// ext is the suffix of a persisted capture.
const ext = ".rsc"

// Store is a directory of persisted captures, one file per (kernel,
// clamped N). Safe for concurrent use; multiple processes may share
// one directory (writes are atomic renames, and every Load reads the
// directory afresh, so a peer's capture is visible to the next Load).
type Store struct {
	dir string

	hits       *obs.Counter
	misses     *obs.Counter
	puts       *obs.Counter
	putErrors  *obs.Counter
	loadErrors *obs.Counter
	entries    *obs.Gauge
}

// Open creates dir if needed and returns the store, with store.entries
// set to the capture files already there. It reads none of them:
// damage is found, counted and missed by the Load that reads the
// file. reg may be nil (metrics become no-ops via the nil-safe obs
// instruments).
func Open(dir string, reg *obs.Registry) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:        dir,
		hits:       reg.Counter(MetricHits),
		misses:     reg.Counter(MetricMisses),
		puts:       reg.Counter(MetricPuts),
		putErrors:  reg.Counter(MetricPutErrors),
		loadErrors: reg.Counter(MetricLoadErrors),
		entries:    reg.Gauge(MetricEntries),
	}
	s.Len()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len counts the capture files on disk (temp files and directories
// excluded) and refreshes store.entries with the count.
func (s *Store) Len() int {
	des, _ := os.ReadDir(s.dir) // unreadable counts as empty: Load and Save count their own failures
	n := 0
	for _, de := range des {
		if name := de.Name(); !de.IsDir() && !strings.HasPrefix(name, ".") && strings.HasSuffix(name, ext) {
			n++
		}
	}
	s.entries.Set(int64(n))
	return n
}

// path is the file of (key, n). The key is path-escaped so no kernel
// key can name a file outside the directory; every real key ("k1",
// "u:<hex>") escapes to itself.
func (s *Store) path(key string, n int) string {
	return filepath.Join(s.dir, url.PathEscape(key)+"-"+strconv.Itoa(n)+ext)
}

// Load returns the persisted stream for (k, n), if any: one file read,
// a digest check, and a full decode against k itself, so a compiled
// kernel's capture loads with no resolver. A missing file is a miss;
// any other failure — unreadable, digest mismatch, corrupt encoding, a
// different kernel or problem size inside — is a miss counted in
// store.load_errors.
func (s *Store) Load(k *loops.Kernel, n int) (*refstream.Stream, bool) {
	if s == nil || k == nil {
		return nil, false
	}
	st, err := s.read(k, k.ClampN(n))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.loadErrors.Inc()
		}
		s.misses.Inc()
		return nil, false
	}
	s.hits.Inc()
	return st, true
}

func (s *Store) read(k *loops.Kernel, n int) (*refstream.Stream, error) {
	data, err := os.ReadFile(s.path(k.Key, n))
	if err != nil {
		return nil, err
	}
	if len(data) < sha256.Size {
		return nil, fmt.Errorf("store: %d-byte file has no digest", len(data))
	}
	enc, digest := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(enc); !bytes.Equal(sum[:], digest) {
		return nil, fmt.Errorf("store: digest mismatch")
	}
	st, err := refstream.UnmarshalStreamKernels(enc, func(key string) (*loops.Kernel, error) {
		if key != k.Key {
			return nil, fmt.Errorf("store: file holds kernel %q", key)
		}
		return k, nil
	})
	if err != nil {
		return nil, err
	}
	if st.N != n {
		return nil, fmt.Errorf("store: file holds n=%d, want %d", st.N, n)
	}
	return st, nil
}

// Save persists st under its key's name: the canonical encoding and
// its SHA-256, written to a ".tmp-*" file in the same directory,
// fsynced and renamed into place, so a crash at any instant leaves
// either the complete file or an ignorable orphan. The fsync is the
// store's crash-safety guarantee: without it a rename can reach disk
// before the bytes it names. An existing file of the key — a damaged
// one, or a peer's identical capture — is replaced. Disk errors are
// counted and swallowed: persistence is an optimization; the capture
// in hand is still good.
func (s *Store) Save(st *refstream.Stream) {
	if s == nil || st == nil {
		return
	}
	data, err := st.MarshalBinary()
	if err != nil {
		s.putErrors.Inc()
		return
	}
	sum := sha256.Sum256(data)
	path := s.path(st.Kernel.Key, st.N)
	_, statErr := os.Lstat(path)
	if err := writeAtomic(path, append(data, sum[:]...)); err != nil {
		s.putErrors.Inc()
		return
	}
	s.puts.Inc()
	if statErr != nil {
		s.entries.Add(1)
	}
}

// writeAtomic lands data at path via a temp file in the same directory
// and rename, fsyncing the file before the rename so the final name
// never refers to partial contents.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
