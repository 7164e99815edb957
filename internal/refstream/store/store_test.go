package store

// store_test.go — the warm-start contract: captures persisted by one
// Store are visible to a fresh Open of the same directory and to a
// concurrently-open peer, temp files and damaged files left behind by
// crashes are counted and never served, identical captures share one
// file, and the store retains no decoded stream.

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
)

func capture(t *testing.T, key string) *refstream.Stream {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatalf("ByKey(%q): %v", key, err)
	}
	st, err := refstream.Capture(k, 0)
	if err != nil {
		t.Fatalf("Capture(%s): %v", key, err)
	}
	return st
}

func counter(reg *obs.Registry, name string) int64 {
	v, _ := reg.Snapshot().Counters[name]
	return v
}

// sealed is st's file contents: the canonical encoding and its digest.
func sealed(t *testing.T, st *refstream.Stream) []byte {
	t.Helper()
	enc, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	return append(enc, sum[:]...)
}

func TestSaveThenWarmStart(t *testing.T) {
	dir := t.TempDir()
	regA := obs.NewRegistry()
	a, err := Open(dir, regA)
	if err != nil {
		t.Fatal(err)
	}
	st := capture(t, "k1")
	a.Save(st)
	if got := counter(regA, MetricPuts); got != 1 {
		t.Fatalf("puts = %d, want 1", got)
	}

	// A fresh Open — the restarted shard — sees the persisted file.
	regB := obs.NewRegistry()
	b, err := Open(dir, regB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("warm-start found %d capture files, want 1", b.Len())
	}
	got, ok := b.Load(st.Kernel, st.N)
	if !ok {
		t.Fatal("warm-started store missed a persisted capture")
	}
	if counter(regB, MetricHits) != 1 {
		t.Fatal("hit not counted")
	}
	// Bit-identical: same canonical encoding as the original capture.
	wantEnc, _ := st.MarshalBinary()
	gotEnc, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(wantEnc) != string(gotEnc) {
		t.Fatal("warm-started stream encodes differently from the original capture")
	}

	// Loading via an unclamped problem size resolves to the same file.
	if _, ok := b.Load(st.Kernel, 0); !ok {
		t.Fatal("clamped-N lookup missed")
	}
}

// TestPeerVisibilityViaRescan: a peer opened before the save sees the
// capture at its very next Load, because every Load reads the file.
func TestPeerVisibilityViaRescan(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := capture(t, "k2")
	a.Save(st)
	if _, ok := b.Load(st.Kernel, st.N); !ok {
		t.Fatal("peer store did not find a fresh capture")
	}
}

// TestCrashArtifactsIgnored: a temp file is never read; a truncated
// file and a bit-flipped file (with a digest matching its flipped
// bytes) under their keys' names are each counted once by the Load
// that reads them and never served; the next Save repairs the
// truncated one.
func TestCrashArtifactsIgnored(t *testing.T) {
	dir := t.TempDir()
	k1, k2 := capture(t, "k1"), capture(t, "k2")
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	file1 := sealed(t, k1)

	// A partial temp file: the shape a SIGKILL mid-Save leaves behind.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-1234"), file1[:len(file1)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A truncated file under k1's name.
	if err := os.WriteFile(s.path(k1.Kernel.Key, k1.N), file1[:len(file1)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt encoding under k2's name whose digest matches it, so
	// only full validation can reject it.
	enc, _ := k2.MarshalBinary()
	enc[len(enc)-1] ^= 0xff
	sum := sha256.Sum256(enc)
	if err := os.WriteFile(s.path(k2.Kernel.Key, k2.N), append(enc, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}

	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (the temp file is not a capture)", got)
	}
	for i, st := range []*refstream.Stream{k1, k2} {
		if _, ok := s.Load(st.Kernel, st.N); ok {
			t.Fatalf("a crash artifact of %s was served as a stream", st.Kernel.Key)
		}
		if got := counter(reg, MetricLoadErrors); got != int64(i+1) {
			t.Fatalf("load_errors = %d after loading %s, want %d", got, st.Kernel.Key, i+1)
		}
	}
	// A clean Save replaces the truncated file.
	s.Save(k1)
	if _, ok := s.Load(k1.Kernel, k1.N); !ok {
		t.Fatal("save over a truncated file not loadable")
	}
	if got := counter(reg, MetricLoadErrors); got != 2 {
		t.Fatalf("load_errors = %d after the repair, want 2", got)
	}
}

// TestRenameFailureCounted: a directory squatting a capture's final
// name makes the rename fail. Save counts a put error and leaves no
// temp file, and Load misses.
func TestRenameFailureCounted(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	st := capture(t, "k1")
	if err := os.Mkdir(s.path(st.Kernel.Key, st.N), 0o755); err != nil {
		t.Fatal(err)
	}
	s.Save(st)
	if got := counter(reg, MetricPutErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricPutErrors, got)
	}
	if got := counter(reg, MetricPuts); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricPuts, got)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Fatalf("failed Save left %s behind", de.Name())
		}
	}
	if _, ok := s.Load(st.Kernel, st.N); ok {
		t.Fatal("Load hit a name squatted by a directory")
	}
}

func TestContentDedup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := capture(t, "k6")
	s.Save(st)
	s.Save(st)
	// An independent capture of the same (kernel, N) has the same
	// canonical bytes, so it lands in the same file.
	s.Save(capture(t, "k6"))

	if n := s.Len(); n != 1 {
		t.Fatalf("%d capture files after duplicate saves, want 1", n)
	}
}

// TestCompiledKernelWarmStart: a capture of a compiled ("u:...")
// kernel persists like any other, and once a restarted process
// compiles the same source, Load warm-starts from the old bytes with
// no resolver — the kernel in hand is the only one the file may name.
// A file under a key's name that holds another kernel's stream is
// counted and never served.
func TestCompiledKernelWarmStart(t *testing.T) {
	source := "PROGRAM warm\n  ARRAY A(n+1) OUTPUT\n  ARRAY B(n+1) INPUT\n" +
		"  DO i = 1, n\n    A(i) = 2*B(i)\n  END DO\nEND\n"
	krA := kernelreg.New(kernelreg.Limits{}, nil)
	resp, err := krA.Compile(kernelreg.CompileRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	k, err := krA.Resolve(resp.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	st, err := refstream.Capture(k, 0)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Save(st)

	// Restart: the file is on disk, and opening reads none of it.
	regB := obs.NewRegistry()
	b, err := Open(dir, regB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("store found %d capture files, want 1", b.Len())
	}

	// The operator compiles the same source after restart; the very
	// next Load finds the old capture.
	krB := kernelreg.New(kernelreg.Limits{}, nil)
	if _, err := krB.Compile(kernelreg.CompileRequest{Source: source}); err != nil {
		t.Fatal(err)
	}
	k2, err := krB.Resolve(resp.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := b.Load(k2, k2.DefaultN)
	if !ok {
		t.Fatal("compiled-kernel capture not loadable after re-registration")
	}
	want, _ := st.MarshalBinary()
	gotBytes, _ := got.MarshalBinary()
	if !bytes.Equal(want, gotBytes) {
		t.Fatal("warm-started stream bytes differ from the original capture")
	}
	if got := counter(regB, MetricLoadErrors); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricLoadErrors, got)
	}

	// The compiled kernel's intact file, copied under k1's name, is
	// another kernel's stream to a Load of k1.
	k1, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b.path(k1.Key, k1.ClampN(0)), sealed(t, st), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Load(k1, 0); ok {
		t.Fatal("a compiled kernel's stream was served for k1")
	}
	if got := counter(regB, MetricLoadErrors); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricLoadErrors, got)
	}
}

// TestStoreRetainsNoStream saves more distinct streams than a small
// refstream.Cache holds, through the cache with the store as its
// Loader and Saver, and requires every stream the LRU evicted to be
// collected: the cache is the only place a decoded stream lives.
func TestStoreRetainsNoStream(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := refstream.NewCache(2)
	c.Loader, c.Saver = s.Load, s.Save
	k, err := loops.ByKey("k1")
	if err != nil {
		t.Fatal(err)
	}

	const streams = 6
	var (
		mu        sync.Mutex
		collected = map[int]bool{}
	)
	for n := 1; n <= streams; n++ {
		st, err := c.GetScratch(nil, k, n)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(st, func(*refstream.Stream) {
			mu.Lock()
			collected[n] = true
			mu.Unlock()
		})
	}
	if got := s.Len(); got != streams {
		t.Fatalf("store holds %d capture files, want %d", got, streams)
	}

	// The LRU holds the last two; the first four are garbage unless
	// something else pins them.
	evicted := func() int {
		mu.Lock()
		defer mu.Unlock()
		done := 0
		for n := 1; n <= streams-2; n++ {
			if collected[n] {
				done++
			}
		}
		return done
	}
	for deadline := time.Now().Add(5 * time.Second); evicted() < streams-2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d evicted streams collected: something outside the cache retains them", evicted(), streams-2)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(c)
}
