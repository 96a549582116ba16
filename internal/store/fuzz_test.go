package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qframan/internal/hessian"
)

// FuzzDecodeFragmentRecord throws arbitrary bytes at Decode. The codec's
// contract under corruption is total: every input either decodes into a
// record whose re-encoding is byte-identical, or fails with ErrCorrupt
// (ErrVersion for future-codec records) — never a panic, never a partially
// populated result, and never an allocation larger than the input itself
// (a hostile length field must not turn a 50-byte record into a gigabyte
// of zeroed floats).
func FuzzDecodeFragmentRecord(f *testing.F) {
	// Seed with every presence pattern a real run can write, so mutations
	// start from structurally valid records and explore the boundary
	// between "CRC caught it" and "structure caught it".
	full := randomData(2, 11)
	seeds := []*hessian.FragmentData{
		full,
		randomData(1, 3),
		randomData(6, 5),
		{Hess: full.Hess},
		{DAlpha: full.DAlpha, DDipole: full.DDipole},
		{},
	}
	for _, fd := range seeds {
		blob, err := Encode(fd)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// A torn tail and a flipped header are the two corruptions the
		// manifest-replay path sees in practice; seed both shapes.
		f.Add(blob[:len(blob)/2])
		head := append([]byte(nil), blob...)
		head[0] ^= 0xff
		f.Add(head)
	}
	f.Add([]byte(nil))
	f.Add([]byte("QFST"))
	f.Add([]byte("QFST\x02\x00\x00\x00\x00\x00\x00\x00\x00")) // future version, bogus CRC

	f.Fuzz(func(t *testing.T, b []byte) {
		fd, err := Decode(b) // must not panic on any input
		if err != nil {
			if fd != nil {
				t.Fatalf("Decode returned data alongside error %v", err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error %v is neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		// Success: the decoded payload is bounded by the record that
		// carried it — no length field can inflate past the input.
		floats := 0
		if fd.Hess != nil {
			floats += len(fd.Hess.Data)
		}
		for _, c := range fd.DAlpha {
			floats += len(c)
		}
		for _, k := range fd.DDipole {
			floats += len(k)
		}
		if 8*floats > len(b) {
			t.Fatalf("decoded %d floats (%d bytes) from a %d-byte record", floats, 8*floats, len(b))
		}
		// And it roundtrips semantically: anything Decode accepts must
		// survive Encode∘Decode bit-for-bit. (Byte equality with the input
		// is deliberately not asserted — Decode tolerates any nonzero
		// presence byte while Encode canonically writes 1.)
		blob, err := Encode(fd)
		if err != nil {
			t.Fatalf("re-encoding a decoded record failed: %v", err)
		}
		again, err := Decode(blob)
		if err != nil {
			t.Fatalf("decoding a freshly encoded record failed: %v", err)
		}
		if !again.BitEqual(fd) {
			t.Fatalf("Encode∘Decode changed the record (%d-byte input)", len(b))
		}
	})
}

// FuzzOpenStore throws arbitrary manifest bytes and arbitrary segment bytes
// at Open. Replay's contract is total: Open never panics, refuses anything
// but a v2 manifest with ErrFormat, and never indexes a range outside its
// segment; every Get on what it indexed serves a valid record, a clean miss
// or ErrCorrupt.
func FuzzOpenStore(f *testing.F) {
	blob, err := Encode(randomData(2, 21))
	if err != nil {
		f.Fatal(err)
	}
	k := Key{0xab}
	put := fmt.Sprintf("put %s 2 0 0 %d\n", k, len(blob))
	for _, seed := range []struct {
		manifest string
		segment  []byte
	}{
		{manifestHeader + "\n" + put, blob},
		{manifestHeader + "\n" + put + "ref " + k.String() + "\n", blob},
		{manifestHeader + "\n" + put + "del " + k.String() + "\n", blob},
		{manifestHeader + "\n" + put, blob[:len(blob)/2]},                              // segment lost its tail
		{manifestHeader + "\n" + put + "put " + k.String()[:9], append(blob, blob...)}, // torn line
		{manifestHeader + "\n" + fmt.Sprintf("put %s 2 0 9 %d\n", k, len(blob)), append(blob, blob...)},
		{manifestHeader + "\n" + fmt.Sprintf("put %s 2 0 -1 9223372036854775807\n", k), blob},
		{"qfstore v1\nput " + k.String() + " 2 1200\n", nil},
		{"qfst", nil},
		{"", blob},
	} {
		f.Add([]byte(seed.manifest), seed.segment)
	}

	f.Fuzz(func(t *testing.T, manifest, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(SegmentPath(dir, 0), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("Open failed with %v, want ErrFormat or success", err)
			}
			return
		}
		defer s.Close()
		s.mu.Lock()
		keys := make([]Key, 0, len(s.idx))
		for k, e := range s.idx {
			if e.seg != 0 || e.off < 0 || e.n <= 0 || e.off+e.n > int64(len(segment)) {
				t.Errorf("indexed [%d, +%d) in segment %d, which holds %d bytes", e.off, e.n, e.seg, len(segment))
			}
			keys = append(keys, k)
		}
		s.mu.Unlock()
		for _, k := range append(keys, Key{0xcd}) {
			fd, _, err := s.Get(k, Frame{})
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Get(%s) = %v, want a record, a clean miss or ErrCorrupt", k, err)
			}
			if fd != nil && err != nil {
				t.Fatalf("Get(%s) returned data alongside %v", k, err)
			}
		}
	})
}
