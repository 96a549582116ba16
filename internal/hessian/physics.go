package hessian

import (
	"encoding/binary"
	"fmt"
	"math"

	"qframan/internal/dfpt"
)

// physicsSize is the length of the AppendPhysics serialization.
const physicsSize = 97

// AppendPhysics appends the job's physics — every option that can move a bit
// of a converged FragmentData — to b in a fixed little-endian layout: floats
// by bit pattern, counts and the Coulomb mode as u64, flags as one byte. The
// same bytes are the job section of the store's content fingerprint and the
// options payload of the cluster's JOB and LEASE frames, so a worker executes
// exactly the description its key was hashed from. Execution-only fields — the
// Obs scopes, the warm-start data SCF.InitDeltaQ, SCF.Chord, DFPT.InitP1 and
// the ignored DFPT.Mixing — are not part of it.
//
// A new physics option is added here and, at the same position, in
// ParsePhysics; both store.fingerprintVersion and cluster.ProtoVersion then
// move. TestPhysicsCoversEveryField fails until the field is either encoded
// or listed as execution-only.
func (o JobOptions) AppendPhysics(b []byte) []byte {
	b = appendF64(b, o.Step)
	b = appendFlag(b, o.SkipAlpha)
	b = appendU64(b, uint64(o.SCF.MaxIter))
	b = appendF64(b, o.SCF.Tol)
	b = appendF64(b, o.SCF.Mixing)
	b = appendF64(b, o.SCF.Smearing)
	b = appendF64(b, o.SCF.Field.X)
	b = appendF64(b, o.SCF.Field.Y)
	b = appendF64(b, o.SCF.Field.Z)
	b = appendU64(b, uint64(o.DFPT.Coulomb))
	b = appendF64(b, o.DFPT.GridSpacing)
	b = appendF64(b, o.DFPT.GridMargin)
	return appendU64(b, uint64(o.DFPT.BatchSide))
}

// ParsePhysics is the validating inverse of AppendPhysics: it accepts exactly
// the byte strings AppendPhysics produces from options whose counts fit an
// int32 and whose Coulomb mode is known, so parsing and re-appending is the
// identity. The execution-only fields of the result are zero. The input
// arrives from the network; a malformed one is an error, never a panic.
func ParsePhysics(b []byte) (JobOptions, error) {
	var o JobOptions
	if len(b) != physicsSize {
		return o, fmt.Errorf("hessian: physics options are %d bytes, want %d", len(b), physicsSize)
	}
	var err error
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	count := func(name string) int {
		v := u64()
		if v > math.MaxInt32 && err == nil {
			err = fmt.Errorf("hessian: physics option %s = %d out of range", name, v)
		}
		return int(v)
	}
	flag := func(name string) bool {
		v := b[0]
		b = b[1:]
		if v > 1 && err == nil {
			err = fmt.Errorf("hessian: physics option %s = %d is not a flag", name, v)
		}
		return v == 1
	}
	o.Step = f64()
	o.SkipAlpha = flag("SkipAlpha")
	o.SCF.MaxIter = count("SCF.MaxIter")
	o.SCF.Tol = f64()
	o.SCF.Mixing = f64()
	o.SCF.Smearing = f64()
	o.SCF.Field.X = f64()
	o.SCF.Field.Y = f64()
	o.SCF.Field.Z = f64()
	o.DFPT.Coulomb = dfpt.CoulombMode(count("DFPT.Coulomb"))
	o.DFPT.GridSpacing = f64()
	o.DFPT.GridMargin = f64()
	o.DFPT.BatchSide = count("DFPT.BatchSide")
	if err == nil && o.DFPT.Coulomb != dfpt.GammaCoulomb && o.DFPT.Coulomb != dfpt.GridCoulomb {
		err = fmt.Errorf("hessian: unknown Coulomb mode %d", o.DFPT.Coulomb)
	}
	if err != nil {
		return JobOptions{}, err
	}
	return o, nil
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendFlag(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}
