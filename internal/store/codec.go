// Package store is the crash-safe persistence layer of the runtime: a
// versioned, CRC-guarded binary codec for per-fragment results, content-
// addressed keys derived from a canonical fragment fingerprint (species,
// rigid-motion-canonicalized quantized geometry, and the full job options),
// and an append-only manifest over append-only segment files, committed in
// groups under one fsync. Together these give the production property the paper's 33.8M-
// fragment runs (§VI-A) need: a run killed at any instant resumes by replaying the
// manifest and recomputing only missing or corrupt fragments, and the
// near-identical water fragments that dominate a solvated system collapse
// onto a single stored record within and across runs.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// ErrCorrupt marks a record whose bytes fail structural or CRC validation.
// Callers must treat it as "recompute this fragment" — a corrupt checkpoint
// is requeued, never decoded into a silently wrong spectrum.
var ErrCorrupt = errors.New("store: corrupt record")

// ErrVersion marks a record written by a newer codec than this binary
// understands. Like ErrCorrupt it demotes the record to a cache miss.
var ErrVersion = errors.New("store: unsupported record version")

// Codec format v1 (little endian):
//
//	[0:4)  magic "QFST"
//	[4:6)  u16 version
//	[6:)   body —
//	        u8 hasHess;   if set: u32 rows, u32 cols, rows·cols × f64
//	        u8 hasAlpha;  if set: u32 n, 6 × n × f64   (AlphaComponents order)
//	        u8 hasDipole; if set: u32 n, 3 × n × f64
//	[-4:]  u32 CRC-32C over every preceding byte
//
// Floats are stored as their exact IEEE-754 bit patterns, so a roundtrip is
// bit-identical — the property the crash-resume e2e tests assert on whole
// spectra.
const (
	codecMagic   = "QFST"
	codecVersion = 1
)

// crcTable is the Castagnoli polynomial (computed in hardware on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes fd into a self-validating record. Optional blocks
// (Hessian-only runs, test fakes) must be all-present or all-nil per field
// family; a ragged DAlpha/DDipole is an error.
func Encode(fd *hessian.FragmentData) ([]byte, error) {
	if fd == nil {
		return nil, fmt.Errorf("store: cannot encode nil fragment data")
	}
	hasAlpha, err := allOrNone(fd.DAlpha[:], "DAlpha")
	if err != nil {
		return nil, err
	}
	hasDip, err := allOrNone(fd.DDipole[:], "DDipole")
	if err != nil {
		return nil, err
	}

	size := 4 + 2 + 3 // magic, version, three presence bytes
	if fd.Hess != nil {
		size += 8 + 8*len(fd.Hess.Data)
	}
	if hasAlpha {
		size += 4 + 8*6*len(fd.DAlpha[0])
	}
	if hasDip {
		size += 4 + 8*3*len(fd.DDipole[0])
	}
	size += 4 // CRC

	buf := make([]byte, 0, size)
	buf = append(buf, codecMagic...)
	buf = appendU16(buf, codecVersion)
	if fd.Hess != nil {
		buf = append(buf, 1)
		buf = appendU32(buf, uint32(fd.Hess.Rows))
		buf = appendU32(buf, uint32(fd.Hess.Cols))
		buf = appendF64s(buf, fd.Hess.Data)
	} else {
		buf = append(buf, 0)
	}
	if hasAlpha {
		buf = append(buf, 1)
		buf = appendU32(buf, uint32(len(fd.DAlpha[0])))
		for c := range fd.DAlpha {
			if len(fd.DAlpha[c]) != len(fd.DAlpha[0]) {
				return nil, fmt.Errorf("store: ragged DAlpha component lengths")
			}
			buf = appendF64s(buf, fd.DAlpha[c])
		}
	} else {
		buf = append(buf, 0)
	}
	if hasDip {
		buf = append(buf, 1)
		buf = appendU32(buf, uint32(len(fd.DDipole[0])))
		for k := range fd.DDipole {
			if len(fd.DDipole[k]) != len(fd.DDipole[0]) {
				return nil, fmt.Errorf("store: ragged DDipole component lengths")
			}
			buf = appendF64s(buf, fd.DDipole[k])
		}
	} else {
		buf = append(buf, 0)
	}
	buf = appendU32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// Decode parses and validates a record. Any truncation, bit flip, or
// structural inconsistency yields ErrCorrupt (ErrVersion for records from a
// future codec); the CRC is verified over the whole record before any field
// is trusted.
func Decode(b []byte) (*hessian.FragmentData, error) {
	if len(b) < 4+2+3+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any record", ErrCorrupt, len(b))
	}
	if string(b[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != readU32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r := &reader{b: body, off: 4}
	if v := r.u16(); v != codecVersion {
		return nil, fmt.Errorf("%w: record version %d, codec version %d", ErrVersion, v, codecVersion)
	}
	fd := &hessian.FragmentData{}
	if r.u8() != 0 {
		rows, cols := int(r.u32()), int(r.u32())
		if rows < 0 || cols < 0 || !r.fits(8*rows*cols) {
			return nil, fmt.Errorf("%w: Hessian shape %dx%d exceeds record", ErrCorrupt, rows, cols)
		}
		fd.Hess = linalg.NewMatrixFrom(rows, cols, r.f64s(rows*cols))
	}
	if r.u8() != 0 {
		n := int(r.u32())
		if n < 0 || !r.fits(8*6*n) {
			return nil, fmt.Errorf("%w: DAlpha length %d exceeds record", ErrCorrupt, n)
		}
		for c := range fd.DAlpha {
			fd.DAlpha[c] = r.f64s(n)
		}
	}
	if r.u8() != 0 {
		n := int(r.u32())
		if n < 0 || !r.fits(8*3*n) {
			return nil, fmt.Errorf("%w: DDipole length %d exceeds record", ErrCorrupt, n)
		}
		for k := range fd.DDipole {
			fd.DDipole[k] = r.f64s(n)
		}
	}
	if r.bad || r.off != len(body) {
		return nil, fmt.Errorf("%w: record size inconsistent with contents", ErrCorrupt)
	}
	return fd, nil
}

// allOrNone verifies a component family is uniformly present and reports
// whether it is.
func allOrNone(comps [][]float64, name string) (bool, error) {
	present := 0
	for _, c := range comps {
		if c != nil {
			present++
		}
	}
	if present != 0 && present != len(comps) {
		return false, fmt.Errorf("store: %s has %d of %d components", name, present, len(comps))
	}
	return present > 0, nil
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendF64s(b []byte, xs []float64) []byte {
	for _, x := range xs {
		b = appendU64(b, math.Float64bits(x))
	}
	return b
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// reader is a bounds-checked cursor over a record body; any overrun sets
// bad instead of panicking, so corrupt length fields degrade to ErrCorrupt.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) fits(n int) bool { return n >= 0 && !r.bad && len(r.b)-r.off >= n }

func (r *reader) take(n int) []byte {
	if !r.fits(n) {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return readU32(b)
}

func (r *reader) f64s(n int) []float64 {
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(readU64(b[8*i:]))
	}
	return out
}
