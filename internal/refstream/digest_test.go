package refstream_test

// digest_test.go — the capture byte contract. The capture store files a
// stream under the SHA-256 of its MarshalBinary encoding, so a change
// to how capture executes a kernel must reproduce every byte of every
// stream: testdata/stream_digests.txt was generated at the commit
// before the recording engine and the slot-compiled IR body landed, and
// every capture path since must still hit those digests. A capture that
// fails pins its error text instead.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernelreg"
	"repro/internal/loops"
	"repro/internal/obs"
	"repro/internal/refstream"
)

// nscaleNests are the four registry-compiled loop nests of the
// benchmark's grid_nscale workload (variant 0 of each catalogue
// family), compiled through the registry so their streams carry the
// content-addressed "u:" key a capture dir would hold.
var nscaleNests = []kernelreg.CompileRequest{
	{DefaultN: 1000, Source: `PROGRAM skew0
  ARRAY X(n+1) OUTPUT
  ARRAY Y(n+1) INPUT
  ARRAY Z(n+12) INPUT
  DO k = 1, n
    X(k) = 0.5 + Y(k) + 0.2*Z(k+10) + 0.1*Z(k+11)
  END DO
END
`},
	{DefaultN: 1000, Source: `PROGRAM stride0
  ARRAY XO(n+1) OUTPUT
  ARRAY X(2*n+2) INPUT
  DO k = 1, n
    XO(k) = X(2*k) + -1*X(2*k+1)
  END DO
END
`},
	{DefaultN: 48, Source: `PROGRAM nest0
  ARRAY A(n+2, n+2) OUTPUT
  ARRAY B(n+2, n+2) INPUT
  DO i = 1, n
    DO j = 1, n
      A(i,j) = 0.25*B(i-1,j) + 0.25*B(i+1,j) + 0.25*B(i,j-1) + 0.25*B(i,j+1)
    END DO
  END DO
END
`},
	{DefaultN: 1000, Convert: true, Source: `PROGRAM relax0
  ARRAY U(n+2) INPUT
  DO i = 1, n
    U(i) = 0.5*U(i) + 0.5*U(i+1)
  END DO
END
`},
}

// streamDigestLines captures every pinned (kernel, n) pair and renders
// one "<label> n=<n> <sha256 | !error>" line each.
func streamDigestLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(label string, k *loops.Kernel, n int) {
		digest := ""
		st, err := refstream.Capture(k, n)
		if err != nil {
			digest = "!" + err.Error()
		} else {
			enc, err := st.MarshalBinary()
			if err != nil {
				t.Fatalf("%s n=%d: MarshalBinary: %v", label, n, err)
			}
			sum := sha256.Sum256(enc)
			digest = hex.EncodeToString(sum[:])
		}
		lines = append(lines, fmt.Sprintf("%s n=%d %s", label, k.ClampN(n), digest))
	}
	for _, k := range loops.All() {
		add("builtin:"+k.Key, k, k.DefaultN)
		add("builtin:"+k.Key, k, k.MinN)
	}
	for _, p := range ir.Samples() {
		k, err := p.Kernel(64)
		if err != nil {
			t.Fatalf("sample %s: %v", p.Name, err)
		}
		add(k.Key, k, 64)
		add(k.Key, k, 1)
	}
	reg := kernelreg.New(kernelreg.Limits{}, obs.NewRegistry())
	for _, req := range nscaleNests {
		resp, err := reg.Compile(req)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		k, err := reg.Resolve(resp.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		add("nest:"+resp.Name, k, resp.DefaultN)
		add("nest:"+resp.Name, k, 7)
	}
	return lines
}

// TestStreamDigestsPinned requires every capture to reproduce the
// marshalled bytes recorded in testdata/stream_digests.txt, so capture
// directories written before a capture-path change still load.
func TestStreamDigestsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("default problem sizes are slow in -short mode")
	}
	raw, err := os.ReadFile("testdata/stream_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := streamDigestLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, testdata has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stream bytes changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
