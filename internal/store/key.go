package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"

	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/poisson"
)

// Key is the content address of a fragment result: a SHA-256 of the
// canonical fragment fingerprint. Two fragments share a key exactly when
// the displacement loop is guaranteed to produce the same physics for both
// (in the canonical frame): same species sequence, same rigid-motion-
// canonicalized geometry to within the quantization tolerance, and the same
// job options.
type Key [sha256.Size]byte

// String returns the key in hex — the form used in the manifest and for
// object file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(k) {
		return k, fmt.Errorf("store: invalid key %q", s)
	}
	copy(k[:], b)
	return k, nil
}

// coordQuantum is the coordinate quantization (Å) of the fingerprint.
// Rigid copies of one molecule agree in canonical coordinates to ~1e-15 Å,
// so a 1e-6 Å grid merges them reliably while keeping genuinely different
// geometries — displacement steps are 5e-3 bohr ≈ 2.6e-3 Å — far apart.
const coordQuantum = 1e-6

// fingerprintVersion is bumped whenever the fingerprint byte layout, the
// canonicalization, or the codec changes incompatibly, so stale stores can
// never cross-hit a new binary. v2: the job section (hessian.AppendPhysics)
// lost the DFPT strength-reduction flag byte, which no solve read. v3: it
// lost DFPT.MaxIter, Tol and Mixing, which no solve reads either. v4: records
// rotate by one bit-symmetric conjugation per 3×3 block, which moved bits.
const fingerprintVersion = "qfkey/v4/codec1\n"

// Fingerprint computes the content-addressed key and canonical frame of a
// fragment under the given job options. The fingerprint covers the physics
// inputs only: species, canonicalized quantized coordinates (caps
// included), and every solver setting that can change a converged result —
// the options' AppendPhysics serialization, which leaves out the warm-start
// fields and the observability scopes. It deliberately excludes the
// fragment's identity (ID, Kind, Coeff, GlobalIdx — assembly bookkeeping
// applied outside the stored data).
//
// A non-zero external SCF field breaks rotational isotropy, so the frame
// then canonicalizes translation only: field runs never dedupe rotated
// copies against each other.
func Fingerprint(f *fragment.Fragment, opt hessian.JobOptions) (Key, Frame) {
	s := fpPool.Get().(*fpScratch)
	k, fr := fingerprintInto(s, f, opt)
	fpPool.Put(s)
	return k, fr
}

// Classes is the content-class inventory of a fragment list. The Eq. 1
// decomposition emits the same geometry many times (a water monomer is
// subtracted once per pair it joins), so everything that dedupes by content
// consumes this one table instead of fingerprinting for itself: sched.Run
// classifies each run once, hands the table to its dispatch backend (the
// cluster client) and returns it in its report (to the trajectory differ
// and the serving ledger).
type Classes struct {
	// Keys and Frames hold Fingerprint's outputs for every fragment.
	Keys   []Key
	Frames []Frame
	// Reps lists, ascending, each class's representative: the lowest
	// fragment index carrying its key. Choosing by index rather than by
	// arrival makes results independent of goroutine scheduling.
	Reps []int
	// Members[r] lists, ascending and starting with r itself, the fragments
	// sharing representative r's key; it is nil for every other index.
	Members [][]int
}

// Classify fingerprints every fragment under the job options and groups the
// fragments by key. A canonical record resolved for a representative serves
// each member m as Frames[m].FromCanonical(record).
func Classify(frags []fragment.Fragment, job hessian.JobOptions) *Classes {
	c := &Classes{
		Keys:    make([]Key, len(frags)),
		Frames:  make([]Frame, len(frags)),
		Members: make([][]int, len(frags)),
	}
	rep := make(map[Key]int, len(frags))
	for i := range frags {
		c.Keys[i], c.Frames[i] = Fingerprint(&frags[i], job)
		r, ok := rep[c.Keys[i]]
		if !ok {
			r = i
			rep[c.Keys[i]] = i
			c.Reps = append(c.Reps, i)
		}
		c.Members[r] = append(c.Members[r], i)
	}
	return c
}

// fpScratch is the reusable canonicalization/hashing state of one
// Fingerprint call: the serialization buffer and the SHA-256 digest. Every
// scheduler run fingerprints each of its fragments — every trajectory frame
// included — so the steady state must be allocation-free.
type fpScratch struct {
	buf []byte
	h   hash.Hash
	// sum receives the digest: Sum appends through an interface, so a
	// stack-local destination would escape and allocate per call.
	sum [sha256.Size]byte
}

var fpPool = sync.Pool{New: func() any {
	return &fpScratch{buf: make([]byte, 0, 1024), h: sha256.New()}
}}

// fingerprintInto is Fingerprint against caller-owned scratch.
func fingerprintInto(s *fpScratch, f *fragment.Fragment, opt hessian.JobOptions) (Key, Frame) {
	fr := frameFor(f.Pos)
	if opt.SCF.Field != (geom.Vec3{}) {
		fr.Rotate = false
	}
	buf := append(s.buf[:0], fingerprintVersion...)
	buf = appendU32(buf, uint32(len(f.Els)))
	for _, el := range f.Els {
		buf = append(buf, byte(el))
	}
	for _, p := range f.Pos {
		q := fr.Apply(p)
		buf = appendU64(buf, uint64(quantize(q.X)))
		buf = appendU64(buf, uint64(quantize(q.Y)))
		buf = appendU64(buf, uint64(quantize(q.Z)))
	}
	buf = appendJobFingerprint(buf, opt)
	s.buf = buf // keep any growth for the next call
	s.h.Reset()
	s.h.Write(buf)
	s.h.Sum(s.sum[:0])
	return Key(s.sum), fr
}

// quantize snaps a coordinate to the fingerprint grid.
func quantize(x float64) int64 { return int64(math.Round(x / coordQuantum)) }

// appendJobFingerprint closes the fingerprint with the job: the options' own
// physics serialization (hessian.JobOptions.AppendPhysics — what counts as
// physics is decided there, once, for the key and the cluster wire alike)
// followed by two constants that fence records by the numerics that computed
// them. Every job carries hessian.EngineVersion — pure-Hessian (SkipAlpha)
// runs included, the SCF is theirs too — so a change anywhere in the fragment
// engine's arithmetic bumps it and moves every key: no record of the previous
// engine is ever served to the new one. Grid-mode jobs end with the Poisson
// solver's tag as well: a change of that solver's numerics alone changes
// grid-mode keys and only those (γ-mode jobs never enter internal/poisson).
func appendJobFingerprint(b []byte, opt hessian.JobOptions) []byte {
	b = opt.AppendPhysics(b)
	b = append(b, hessian.EngineVersion...)
	if opt.DFPT.Coulomb == dfpt.GridCoulomb {
		b = append(b, poisson.SolverTag...)
	}
	return b
}
