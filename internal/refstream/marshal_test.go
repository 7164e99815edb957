package refstream

// marshal_test.go — the serialization contract: a captured stream
// survives a marshal/unmarshal round trip bit-identically (same
// encoding, same replay results), and UnmarshalStream rejects every
// truncation and random corruption of a valid encoding with a clean
// ErrCorruptStream — never a panic, never a silently-wrong stream.

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/loops"
	"repro/internal/partition"
	"repro/internal/sim"
)

func captureT(t testing.TB, key string, n int) *Stream {
	t.Helper()
	k, err := loops.ByKey(key)
	if err != nil {
		t.Fatalf("ByKey(%q): %v", key, err)
	}
	st, err := Capture(k, n)
	if err != nil {
		t.Fatalf("Capture(%s, %d): %v", key, n, err)
	}
	return st
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, key := range []string{"k1", "k6", "k12"} {
		st := captureT(t, key, 0)
		enc, err := st.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", key, err)
		}
		got, err := UnmarshalStream(enc)
		if err != nil {
			t.Fatalf("%s: UnmarshalStream: %v", key, err)
		}
		if got.Kernel.Key != st.Kernel.Key || got.N != st.N || got.Events() != st.Events() {
			t.Fatalf("%s: round trip changed identity: (%s,%d,%d) -> (%s,%d,%d)",
				key, st.Kernel.Key, st.N, st.Events(), got.Kernel.Key, got.N, got.Events())
		}
		if len(got.Checksums) != len(st.Checksums) {
			t.Fatalf("%s: %d checksums, want %d", key, len(got.Checksums), len(st.Checksums))
		}
		for i, cs := range st.Checksums {
			if got.Checksums[i] != cs {
				t.Errorf("%s: checksum %d = %+v, want %+v", key, i, got.Checksums[i], cs)
			}
		}
		// The encoding must be canonical: re-marshaling the decoded
		// stream reproduces the exact bytes, so captures agree across
		// nodes.
		enc2, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", key, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: re-marshal produced different bytes (%d vs %d)", key, len(enc), len(enc2))
		}

		// The decoded stream must replay identically to the original.
		cfg := sim.Config{NPE: 8, PageSize: 32, CacheElems: 256, Policy: cache.LRU, Layout: partition.KindModulo}
		want, err := NewReplayer().Run(st, cfg)
		if err != nil {
			t.Fatalf("%s: replaying original: %v", key, err)
		}
		have, err := NewReplayer().Run(got, cfg)
		if err != nil {
			t.Fatalf("%s: replaying decoded: %v", key, err)
		}
		if !reflect.DeepEqual(want.Totals, have.Totals) || !reflect.DeepEqual(want.PerPE, have.PerPE) ||
			!reflect.DeepEqual(want.Checksums, have.Checksums) {
			t.Fatalf("%s: decoded replay diverged:\n%+v\nvs\n%+v", key, want, have)
		}
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	enc, err := captureT(t, "k1", 0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly: a crash mid-write leaves
	// exactly this shape on disk.
	for n := 0; n < len(enc); n++ {
		if _, err := UnmarshalStream(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(enc))
		} else if !errors.Is(err, ErrCorruptStream) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorruptStream", n, err)
		}
	}
}

func TestUnmarshalCorruptions(t *testing.T) {
	enc, err := captureT(t, "k1", 0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Flip each byte through a few values. Most mutations must error;
	// the ones that survive must at least decode to a structurally
	// valid stream (no panics, indexes in range — decodeColumns ran).
	for i := range enc {
		for _, delta := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= delta
			st, err := UnmarshalStream(mut)
			if err != nil {
				if !errors.Is(err, ErrCorruptStream) {
					t.Fatalf("byte %d ^ %#x: error %v does not wrap ErrCorruptStream", i, delta, err)
				}
				continue
			}
			if st.Kernel == nil || st.Events() < 0 {
				t.Fatalf("byte %d ^ %#x: accepted stream is malformed", i, delta)
			}
		}
	}
	// Trailing garbage is corruption, not padding.
	if _, err := UnmarshalStream(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// gappedTerms returns the encoding of a k3 stream whose second
// reduction term skips an element of the driver array. Every other
// field is well formed, so only the term rule can reject it.
func gappedTerms(t testing.TB) []byte {
	t.Helper()
	st := captureT(t, "k3", 0)
	heads, lins := st.dheads, st.dlins
	gap := &Stream{Kernel: st.Kernel, N: st.N, ArrayLens: st.ArrayLens, Checksums: st.Checksums,
		events: st.events, dheads: heads, dlins: slices.Clone(lins)}
	terms := 0
	for i, h := range heads {
		if h&7 == opTerm {
			if terms++; terms == 2 {
				gap.dlins[i]++ // terms 1, 3, 3, 4, ...
				break
			}
		}
	}
	if terms != 2 {
		t.Fatalf("k3 stream has %d reduction terms, want at least 2", terms)
	}
	enc, err := gap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestUnmarshalRejectsGappedTerms: reduction terms that are not
// consecutive elements of one driver array are corruption. Replay
// classifies a reduction from the page range its terms cover
// (frameAgg), which is only exact for consecutive terms.
func TestUnmarshalRejectsGappedTerms(t *testing.T) {
	enc, err := captureT(t, "k3", 0).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStream(enc); err != nil {
		t.Fatalf("k3 as captured: %v", err)
	}
	if _, err := UnmarshalStream(gappedTerms(t)); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("k3 with a gap between two terms: error %v, want ErrCorruptStream", err)
	}
}

func FuzzUnmarshalStream(f *testing.F) {
	enc, err := captureT(f, "k1", 0).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte("rsc1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalStream(data)
		if err != nil {
			return // any error is fine; panics are the failure mode
		}
		// Accepted streams must be replayable without panicking: the
		// validator promised every index is in range.
		cfg := sim.Config{NPE: 2, PageSize: 32, Policy: cache.LRU, Layout: partition.KindModulo}
		if _, err := NewReplayer().Run(st, cfg); err != nil {
			t.Logf("replay of accepted fuzz stream errored (allowed): %v", err)
		}
	})
}
