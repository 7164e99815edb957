package refstream

// marshal.go — the wire encoding of a captured Stream: the format the
// disk-backed capture store (internal/refstream/store) persists and
// shards exchange. A varint header (kernel key, problem size, array
// lengths, validation checksums, event count) is followed by the event
// columns in compressed form, each prefixed by its byte length. Per
// event, the heads column holds one varint packing (arrayID << 3 |
// opcode); the lins column holds, for opcodes that carry an element
// index, the zigzag-varint delta against the previous index seen for
// that array. Livermore access patterns are overwhelmingly sequential
// per array, so a typical event costs two bytes against the eight of
// the in-memory columns. MarshalBinary encodes the fixed-width columns
// straight into its output and UnmarshalStream decodes straight from
// its input; a Stream never holds the compressed form.
//
// The encoding is canonical: one Stream has exactly one byte string
// (the columns are deterministic functions of the capture, and the
// header carries no ordering freedom): two shards that capture the
// same (kernel, N) pair independently produce the same bytes, so
// either one's file serves both.
//
// UnmarshalStream is paranoid by contract: it is fed files that may
// have been truncated by a crash or corrupted on disk, and must fail
// with ErrCorruptStream — never panic, never over-allocate, never
// return a stream whose replay would index out of bounds. Every length
// is bounded by the remaining input before allocation, and the event
// columns are fully walked and range-checked against the declared
// array lengths as they are decoded, before the stream is accepted.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/loops"
	"repro/internal/partition"
)

// streamMagic frames a serialized reference stream; the trailing byte
// is the format version.
var streamMagic = [4]byte{'r', 's', 'c', '1'}

// ErrCorruptStream reports that a serialized stream failed structural
// validation: wrong magic, a truncated field, an out-of-range element
// index, reduction terms that are not consecutive elements of one
// array, or trailing garbage. Errors from UnmarshalStream wrap it.
var ErrCorruptStream = errors.New("refstream: corrupt stream encoding")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptStream, fmt.Sprintf(format, args...))
}

// MarshalBinary renders the stream's canonical byte encoding. Safe
// for concurrent use alongside replays; the stream is not mutated.
func (s *Stream) MarshalBinary() ([]byte, error) {
	if s.Kernel == nil {
		return nil, fmt.Errorf("refstream: marshal: stream has no kernel")
	}
	buf := append([]byte(nil), streamMagic[:]...)
	buf = appendUvarintString(buf, s.Kernel.Key)
	buf = binary.AppendUvarint(buf, uint64(s.N))
	buf = binary.AppendUvarint(buf, uint64(len(s.ArrayLens)))
	for _, l := range s.ArrayLens {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Checksums)))
	for _, cs := range s.Checksums {
		buf = appendUvarintString(buf, cs.Name)
		buf = binary.AppendUvarint(buf, uint64(cs.Elems))
		buf = binary.AppendUvarint(buf, uint64(cs.Defined))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cs.Sum))
	}
	buf = binary.AppendUvarint(buf, uint64(s.events))
	return appendColumns(buf, s.dheads, s.dlins, len(s.ArrayLens)), nil
}

// columnSizes returns the byte lengths of the compressed heads and lins
// columns of the given events over arrays arrays.
func columnSizes(heads []uint32, lins []int32, arrays int) (headsLen, linsLen int) {
	last := make([]int32, arrays)
	for i, h := range heads {
		headsLen += uvarintLen(uint64(h))
		if a := h >> 3; opHasLin(byte(h & 7)) {
			linsLen += uvarintLen(zigzag(int64(lins[i]) - int64(last[a])))
			last[a] = lins[i]
		}
	}
	return headsLen, linsLen
}

// appendColumns appends the compressed heads and lins columns of the
// given events to buf, each prefixed by its byte length. It grows buf
// once, to the size columnSizes measures, and writes both columns in
// one walk.
func appendColumns(buf []byte, heads []uint32, lins []int32, arrays int) []byte {
	headsLen, linsLen := columnSizes(heads, lins, arrays)
	buf = binary.AppendUvarint(buf, uint64(headsLen))
	h := len(buf)
	buf = append(buf, make([]byte, headsLen)...)
	buf = binary.AppendUvarint(buf, uint64(linsLen))
	l := len(buf)
	buf = append(buf, make([]byte, linsLen)...)
	last := make([]int32, arrays)
	for i, hd := range heads {
		h += binary.PutUvarint(buf[h:], uint64(hd))
		if a := hd >> 3; opHasLin(byte(hd & 7)) {
			l += binary.PutUvarint(buf[l:], zigzag(int64(lins[i])-int64(last[a])))
			last[a] = lins[i]
		}
	}
	return buf
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendUvarintString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// streamReader cursors over a serialized stream with bounds checking.
type streamReader struct {
	buf []byte
}

func (r *streamReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, corruptf("truncated or malformed %s varint", what)
	}
	r.buf = r.buf[n:]
	return v, nil
}

// length reads a count/size field and bounds it by the remaining
// input, so a corrupted length can never drive a huge allocation.
func (r *streamReader) length(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)) {
		return 0, corruptf("%s length %d exceeds remaining %d bytes", what, v, len(r.buf))
	}
	return int(v), nil
}

func (r *streamReader) bytes(n int) []byte {
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// UnmarshalStream decodes and validates a serialized stream. The
// returned Stream is immutable and replay-ready: its columns have been
// fully walked, every opcode and element index range-checked and every
// reduction's terms checked consecutive, so a later replay cannot index
// out of bounds or misread a reduction. Any structural defect —
// truncation, unknown kernel, mismatched array declarations, trailing
// bytes — returns an error wrapping ErrCorruptStream.
func UnmarshalStream(data []byte) (*Stream, error) {
	return UnmarshalStreamKernels(data, loops.ByKey)
}

// UnmarshalStreamKernels is UnmarshalStream with an explicit kernel
// resolver, so a stream of a registry-compiled ("u:...") kernel
// decodes against a kernel the built-in table does not hold; the
// capture store passes one that accepts only the kernel it was asked
// to load. A key the resolver rejects is corruption.
func UnmarshalStreamKernels(data []byte, resolve func(key string) (*loops.Kernel, error)) (*Stream, error) {
	r := &streamReader{buf: data}
	if len(r.buf) < len(streamMagic) || string(r.bytes(len(streamMagic))) != string(streamMagic[:]) {
		return nil, corruptf("bad magic")
	}
	keyLen, err := r.length("kernel key")
	if err != nil {
		return nil, err
	}
	kernelKey := string(r.bytes(keyLen))
	k, err := resolve(kernelKey)
	if err != nil {
		return nil, corruptf("unknown kernel %q", kernelKey)
	}
	nv, err := r.uvarint("problem size")
	if err != nil {
		return nil, err
	}
	if nv > uint64(math.MaxInt32) {
		return nil, corruptf("problem size %d out of range", nv)
	}
	n := int(nv)
	if k.ClampN(n) != n {
		return nil, corruptf("problem size %d is not canonical for %s", n, k.Key)
	}

	// The array table must match the kernel's own declarations at this
	// problem size: the stream is only meaningful against them, and the
	// check rejects encodings whose element bounds were tampered with.
	specs := k.Arrays(n)
	nArrays, err := r.length("array count")
	if err != nil {
		return nil, err
	}
	if nArrays != len(specs) {
		return nil, corruptf("%d arrays, want %d for %s/n=%d", nArrays, len(specs), k.Key, n)
	}
	st := &Stream{Kernel: k, N: n, ArrayLens: make([]int, nArrays)}
	for i := 0; i < nArrays; i++ {
		lv, err := r.uvarint("array length")
		if err != nil {
			return nil, err
		}
		dims, err := partition.NewDims(specs[i].Dims...)
		if err != nil {
			return nil, corruptf("%s array %q: %v", k.Key, specs[i].Name, err)
		}
		if lv != uint64(dims.Elems()) {
			return nil, corruptf("array %d length %d, want %d", i, lv, dims.Elems())
		}
		st.ArrayLens[i] = int(lv)
	}

	nSums, err := r.length("checksum count")
	if err != nil {
		return nil, err
	}
	if nSums > len(specs) {
		return nil, corruptf("%d checksums for %d arrays", nSums, len(specs))
	}
	st.Checksums = make([]loops.ArraySum, nSums)
	for i := range st.Checksums {
		nameLen, err := r.length("checksum name")
		if err != nil {
			return nil, err
		}
		name := string(r.bytes(nameLen))
		elems, err := r.uvarint("checksum elems")
		if err != nil {
			return nil, err
		}
		defined, err := r.uvarint("checksum defined")
		if err != nil {
			return nil, err
		}
		if len(r.buf) < 8 {
			return nil, corruptf("truncated checksum sum")
		}
		sum := math.Float64frombits(binary.LittleEndian.Uint64(r.bytes(8)))
		if elems > uint64(math.MaxInt32) || defined > elems {
			return nil, corruptf("checksum %q counts out of range", name)
		}
		st.Checksums[i] = loops.ArraySum{Name: name, Sum: sum, Defined: int(defined), Elems: int(elems)}
	}

	events, err := r.uvarint("event count")
	if err != nil {
		return nil, err
	}
	headsLen, err := r.length("heads column")
	if err != nil {
		return nil, err
	}
	if events > uint64(headsLen) {
		// Each event costs at least one heads byte, so the count bounds
		// allocation downstream.
		return nil, corruptf("%d events in a %d-byte heads column", events, headsLen)
	}
	heads := r.bytes(headsLen)
	linsLen, err := r.length("lins column")
	if err != nil {
		return nil, err
	}
	lins := r.bytes(linsLen)
	st.events = int(events)
	if len(r.buf) != 0 {
		return nil, corruptf("%d trailing bytes", len(r.buf))
	}
	if err := st.decodeColumns(heads, lins); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeColumns decodes the compressed event columns into the stream's
// fixed-width ones in one walk, checking as it goes that every varint
// decodes, every opcode is known, every array ID has a declaration,
// every element index lands inside its array, every reduction's terms
// are consecutive elements of the driver array that closes it, and the
// event count matches — the precondition that lets replay run with no
// per-event bounds checks and classify reductions from page ranges
// (frameAgg).
func (s *Stream) decodeColumns(heads, lins []byte) error {
	s.dheads = make([]uint32, 0, s.events)
	s.dlins = make([]int32, 0, s.events)
	last := make([]int, len(s.ArrayLens))
	count := 0
	driver, term := -1, 0 // the open reduction's array (-1: none) and last term
	for len(heads) > 0 {
		h, n := binary.Uvarint(heads)
		if n <= 0 {
			return corruptf("malformed heads varint at event %d", count)
		}
		heads = heads[n:]
		op := byte(h & 7)
		array := int(h >> 3)
		if op > opEndReduce {
			return corruptf("unknown opcode %d at event %d", op, count)
		}
		if array >= len(s.ArrayLens) {
			return corruptf("array %d out of range at event %d", array, count)
		}
		lin := 0
		if opHasLin(op) {
			d, n := binary.Uvarint(lins)
			if n <= 0 {
				return corruptf("malformed lins varint at event %d", count)
			}
			lins = lins[n:]
			lin = last[array] + int(unzigzag(d))
			if lin < 0 || lin >= s.ArrayLens[array] {
				return corruptf("element %d of array %d out of range [0,%d) at event %d",
					lin, array, s.ArrayLens[array], count)
			}
			last[array] = lin
		}
		switch {
		case op == opTerm && driver >= 0 && (array != driver || lin != term+1):
			return corruptf("reduction term %d of array %d does not follow term %d of array %d at event %d",
				lin, array, term, driver, count)
		case op == opTerm:
			driver, term = array, lin
		case op == opEndReduce && driver >= 0 && array != driver:
			return corruptf("reduction over array %d closed by array %d at event %d", driver, array, count)
		case op == opEndReduce:
			driver = -1
		}
		count++
		if count > s.events {
			return corruptf("more than the declared %d events", s.events)
		}
		s.dheads = append(s.dheads, uint32(h))
		s.dlins = append(s.dlins, int32(lin))
	}
	if count != s.events {
		return corruptf("%d events decoded, header declared %d", count, s.events)
	}
	if len(lins) != 0 {
		return corruptf("%d unconsumed lins bytes", len(lins))
	}
	return nil
}
