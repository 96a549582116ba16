package store

import (
	"errors"
	"math/rand"
	"testing"

	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// randomData builds a FragmentData for natoms atoms with every block
// populated from the seeded generator — including negative, tiny, and
// denormal-ish values so roundtrips are checked bit-for-bit, not to a
// tolerance. The Hessian is symmetric bit for bit, as every engine's is
// (rotation refuses one that is not).
func randomData(natoms int, seed int64) *hessian.FragmentData {
	rng := rand.New(rand.NewSource(seed))
	n3 := 3 * natoms
	fd := &hessian.FragmentData{Hess: linalg.NewMatrix(n3, n3)}
	for i := 0; i < n3; i++ {
		for j := i; j < n3; j++ {
			v := (rng.Float64() - 0.5) * rng.ExpFloat64()
			fd.Hess.Set(i, j, v)
			fd.Hess.Set(j, i, v)
		}
	}
	for c := range fd.DAlpha {
		fd.DAlpha[c] = make([]float64, n3)
		for i := range fd.DAlpha[c] {
			fd.DAlpha[c][i] = (rng.Float64() - 0.5) * 1e-7
		}
	}
	for k := range fd.DDipole {
		fd.DDipole[k] = make([]float64, n3)
		for i := range fd.DDipole[k] {
			fd.DDipole[k][i] = (rng.Float64() - 0.5) * 1e3
		}
	}
	return fd
}

func TestCodecRoundtripBitExact(t *testing.T) {
	for _, natoms := range []int{1, 3, 6, 17} {
		fd := randomData(natoms, int64(natoms))
		blob, err := Encode(fd)
		if err != nil {
			t.Fatalf("natoms=%d: Encode: %v", natoms, err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("natoms=%d: Decode: %v", natoms, err)
		}
		if !got.BitEqual(fd) {
			t.Fatalf("natoms=%d: roundtrip is not bit-identical", natoms)
		}
	}
}

// TestCodecOptionalBlocks roundtrips every presence pattern: skipped
// polarizability runs store no DAlpha, IR-only paths may drop blocks, and
// absence must roundtrip as absence (nil, not empty).
func TestCodecOptionalBlocks(t *testing.T) {
	full := randomData(2, 9)
	cases := map[string]*hessian.FragmentData{
		"hess-only":    {Hess: full.Hess},
		"no-alpha":     {Hess: full.Hess, DDipole: full.DDipole},
		"no-dipole":    {Hess: full.Hess, DAlpha: full.DAlpha},
		"derivs-only":  {DAlpha: full.DAlpha, DDipole: full.DDipole},
		"empty-record": {},
	}
	for name, fd := range cases {
		blob, err := Encode(fd)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !got.BitEqual(fd) {
			t.Fatalf("%s: roundtrip changed the data or its presence pattern", name)
		}
	}
}

func TestCodecRejectsRaggedBlocks(t *testing.T) {
	fd := randomData(2, 4)
	fd.DAlpha[3] = fd.DAlpha[3][:5] // ragged: components disagree in length
	if _, err := Encode(fd); err == nil {
		t.Fatal("Encode accepted ragged DAlpha components")
	}
	fd = randomData(2, 4)
	fd.DDipole[1] = nil // partial presence: all-or-none violated
	if _, err := Encode(fd); err == nil {
		t.Fatal("Encode accepted partially present DDipole")
	}
}

// TestCodecTruncation decodes every proper prefix of a valid record: each
// must fail with ErrCorrupt — a torn object write can never decode into
// data, and must never panic.
func TestCodecTruncation(t *testing.T) {
	blob, err := Encode(randomData(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		got, err := Decode(blob[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", n, len(blob))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v is not ErrCorrupt", n, err)
		}
		if got != nil {
			t.Fatalf("prefix of %d bytes returned data alongside the error", n)
		}
	}
}

// TestCodecBitFlips flips one bit in every byte of a valid record: the CRC
// (or a structural check it guards) must reject each mutation.
func TestCodecBitFlips(t *testing.T) {
	blob, err := Encode(randomData(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(blob))
	for i := range blob {
		for _, bit := range []byte{0x01, 0x80} {
			copy(mut, blob)
			mut[i] ^= bit
			got, err := Decode(mut)
			if err == nil {
				t.Fatalf("flip of bit %#x in byte %d decoded successfully", bit, i)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("flip in byte %d: error %v is neither ErrCorrupt nor ErrVersion", i, err)
			}
			if got != nil {
				t.Fatalf("flip in byte %d returned data alongside the error", i)
			}
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {}, []byte("QFST"), []byte("hello world this is not a record")} {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode(%q): got %v, want ErrCorrupt", b, err)
		}
	}
}

func BenchmarkStoreCodec(b *testing.B) {
	fd := randomData(6, 1) // an 18-dim record: the waterbox pair-fragment size
	blob, err := Encode(fd)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := Encode(fd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := Decode(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
