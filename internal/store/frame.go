package store

import (
	"fmt"

	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// Frame is the rigid motion that carries a fragment's geometry into its
// canonical pose: x' = R·(x − C). Records are stored in the canonical
// frame, which lets every rigid copy of a water molecule — the paper's
// solvent boxes are built from randomly *oriented* rigid waters — share one
// record: the key is computed from canonical coordinates, and each member
// gets the stored tensors rotated into its own frame by one conjugation per
// 3×3 block, which keeps a Hessian symmetric bit for bit.
type Frame struct {
	// R rotates fragment coordinates into the canonical frame (row-major,
	// orthonormal, det +1 — mirror images get distinct canonical poses and
	// therefore distinct keys).
	R [3][3]float64
	// C is the fragment centroid (Å).
	C geom.Vec3
	// Rotate is false when no well-defined canonical orientation exists
	// (single atoms, collinear geometries) or when the job applies an
	// external field that breaks rotational isotropy; the frame then
	// canonicalizes translation only and R is ignored.
	Rotate bool
	// NAtoms is the fragment's atom count (including cap hydrogens),
	// recorded in the manifest for the store's size histogram.
	NAtoms int
}

// frameEps is the degeneracy threshold (Å) below which an atom displacement
// is too small to define a frame axis. Coordinates are Å-scale and their
// rigid-motion noise is ~1e-15, so 1e-6 separates the two regimes safely.
const frameEps = 1e-6

// frameFor builds the canonical frame of a geometry: origin at the
// centroid, first axis toward the first atom off the centroid, second axis
// toward the first atom off that line, third completing a right-handed
// basis. Identically ordered rigid copies — fragments are always extracted
// in a deterministic atom order — therefore agree on the frame to within
// floating-point noise, which the key quantization absorbs.
func frameFor(pos []geom.Vec3) Frame {
	fr := Frame{NAtoms: len(pos)}
	if len(pos) == 0 {
		return fr
	}
	var c geom.Vec3
	for _, p := range pos {
		c = c.Add(p)
	}
	fr.C = c.Scale(1 / float64(len(pos)))

	var e1 geom.Vec3
	found := false
	for _, p := range pos {
		d := p.Sub(fr.C)
		if d.Norm() > frameEps {
			e1 = d.Normalize()
			found = true
			break
		}
	}
	if !found {
		return fr // all atoms at the centroid: translation-only
	}
	var e2 geom.Vec3
	found = false
	for _, p := range pos {
		d := p.Sub(fr.C)
		perp := d.Sub(e1.Scale(e1.Dot(d)))
		if perp.Norm() > frameEps {
			e2 = perp.Normalize()
			found = true
			break
		}
	}
	if !found {
		return fr // collinear: no rotation-canonical pose, translation-only
	}
	e3 := e1.Cross(e2)
	fr.R = [3][3]float64{
		{e1.X, e1.Y, e1.Z},
		{e2.X, e2.Y, e2.Z},
		{e3.X, e3.Y, e3.Z},
	}
	fr.Rotate = true
	return fr
}

// Apply maps a fragment-frame point into the canonical frame.
func (fr Frame) Apply(p geom.Vec3) geom.Vec3 {
	d := p.Sub(fr.C)
	if !fr.Rotate {
		return d
	}
	return geom.Vec3{
		X: fr.R[0][0]*d.X + fr.R[0][1]*d.Y + fr.R[0][2]*d.Z,
		Y: fr.R[1][0]*d.X + fr.R[1][1]*d.Y + fr.R[1][2]*d.Z,
		Z: fr.R[2][0]*d.X + fr.R[2][1]*d.Y + fr.R[2][2]*d.Z,
	}
}

// ToCanonical rotates fragment-frame result tensors into the canonical
// frame for storage. Translation never enters: every stored quantity is a
// derivative, invariant under rigid translation.
func (fr Frame) ToCanonical(fd *hessian.FragmentData) (*hessian.FragmentData, error) {
	if !fr.Rotate {
		return fd, nil
	}
	return rotateData(fd, fr.R)
}

// FromCanonical rotates stored canonical-frame tensors back into the
// fragment's own frame.
func (fr Frame) FromCanonical(fd *hessian.FragmentData) (*hessian.FragmentData, error) {
	if !fr.Rotate {
		return fd, nil
	}
	return rotateData(fd, transpose(fr.R))
}

func transpose(r [3][3]float64) [3][3]float64 {
	return [3][3]float64{
		{r[0][0], r[1][0], r[2][0]},
		{r[0][1], r[1][1], r[2][1]},
		{r[0][2], r[1][2], r[2][2]},
	}
}

// rotateData returns fd expressed in a frame rotated by R (coordinates
// transform as x' = R x). Every tensor rotates by one conjugation B' = R·B·Rᵀ
// of a 3×3 block: the Hessian's blocks a ≤ b, with (b, a) written as the
// transpose, so a bit-symmetric Hessian (the only kind it accepts) stays
// bit-symmetric; each atom's dipole derivatives g[k][d] = ∂μ_k/∂x_{a,d}; and
// each coordinate d's symmetric polarizability slice, mixed over d by R
// afterwards.
func rotateData(fd *hessian.FragmentData, R [3][3]float64) (*hessian.FragmentData, error) {
	natoms, err := rotatableAtoms(fd)
	if err != nil {
		return nil, err
	}
	n3 := 3 * natoms
	out := &hessian.FragmentData{}
	if fd.Hess != nil {
		out.Hess = linalg.NewMatrix(n3, n3)
		for a := 0; a < natoms; a++ {
			for b := a; b < natoms; b++ {
				var B [3][3]float64
				for i := range B {
					copy(B[i][:], fd.Hess.Data[(3*a+i)*n3+3*b:])
				}
				B = conj(&R, &B, a == b)
				for i := range B {
					for j, v := range B[i] {
						out.Hess.Data[(3*a+i)*n3+3*b+j] = v
						out.Hess.Data[(3*b+j)*n3+3*a+i] = v
					}
				}
			}
		}
	}
	if fd.DDipole[0] != nil {
		for k := range out.DDipole {
			out.DDipole[k] = make([]float64, n3)
		}
		for a := 0; a < natoms; a++ {
			var g [3][3]float64
			for k := range g {
				copy(g[k][:], fd.DDipole[k][3*a:])
			}
			g = conj(&R, &g, false)
			for k := range g {
				copy(out.DDipole[k][3*a:], g[k][:])
			}
		}
	}
	if fd.DAlpha[0] != nil {
		for c := range out.DAlpha {
			out.DAlpha[c] = make([]float64, n3)
		}
		for a := 0; a < natoms; a++ {
			var A [3][3][3]float64 // A[d][i][j] = ∂α_ij/∂x_{a,d}
			for c, ij := range hessian.AlphaComponents {
				for d := range A {
					v := fd.DAlpha[c][3*a+d]
					A[d][ij[0]][ij[1]], A[d][ij[1]][ij[0]] = v, v
				}
			}
			for d := range A {
				A[d] = conj(&R, &A[d], true)
			}
			for c, ij := range hessian.AlphaComponents {
				i, j := ij[0], ij[1]
				for d := range A {
					out.DAlpha[c][3*a+d] = R[d][0]*A[0][i][j] + R[d][1]*A[1][i][j] + R[d][2]*A[2][i][j]
				}
			}
		}
	}
	return out, nil
}

// conj returns R·B·Rᵀ. With sym set, B must be symmetric: only the upper
// triangle is computed and the lower is its mirror, bit for bit.
func conj(R, B *[3][3]float64, sym bool) (C [3][3]float64) {
	var t [3][3]float64 // R·B
	for i := range t {
		for j := range t[i] {
			t[i][j] = R[i][0]*B[0][j] + R[i][1]*B[1][j] + R[i][2]*B[2][j]
		}
	}
	for i := range C {
		for j := range C[i] {
			if sym && j < i {
				C[i][j] = C[j][i]
				continue
			}
			C[i][j] = t[i][0]*R[j][0] + t[i][1]*R[j][1] + t[i][2]*R[j][2]
		}
	}
	return C
}

// rotatableAtoms infers the atom count from the data's dimensions and
// verifies every present block agrees and the Hessian is bit-symmetric —
// rotating mis-shaped data, or only the upper triangle of an asymmetric
// Hessian, would corrupt it silently.
func rotatableAtoms(fd *hessian.FragmentData) (int, error) {
	if err := fd.CheckSymmetric(); err != nil {
		return 0, fmt.Errorf("store: cannot rotate: %w", err)
	}
	n3 := 3 * fd.NumAtoms()
	if n3 == 0 || (fd.Hess != nil && fd.Hess.Rows != n3) ||
		(fd.DAlpha[0] != nil && len(fd.DAlpha[0]) != n3) || (fd.DDipole[0] != nil && len(fd.DDipole[0]) != n3) {
		return 0, fmt.Errorf("store: data dimensions are not 3N (N = %d from the first present block; ∂α %d, ∂μ %d)",
			n3/3, len(fd.DAlpha[0]), len(fd.DDipole[0]))
	}
	return n3 / 3, nil
}
