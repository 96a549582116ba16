// Package basis implements the minimal Cartesian-Gaussian atomic-orbital
// basis of the quantum engine: one s function on hydrogen, s + (px,py,pz) on
// C/N/O/S. Overlap and dipole integrals and their center derivatives are
// analytic (Obara–Saika one-dimensional recursions), and functions can be
// evaluated — with gradients — on real-space grid points for the DFPT
// density and Hamiltonian phases (paper §V-A; the per-batch tabulations
// feed the batched grid GEMMs of §V-C).
//
// All lengths are in bohr and the basis is orthonormalized per function
// (<χ|χ> = 1); the overlap matrix S is therefore unit-diagonal.
package basis

import (
	"math"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// Func is a single normalized Cartesian Gaussian basis function
// N·(x−Ax)^lx (y−Ay)^ly (z−Az)^lz exp(−α|r−A|²).
type Func struct {
	Atom   int // owning atom index within the fragment
	L      [3]int
	Alpha  float64
	Norm   float64
	Center geom.Vec3 // bohr
	// OnsiteE is the on-site orbital energy (hartree) used by the
	// tight-binding Hamiltonian.
	OnsiteE float64
}

// doubleFactorial returns (2n−1)!! with the convention (−1)!! = 1.
func doubleFactorial(n int) float64 {
	out := 1.0
	for k := 2*n - 1; k > 1; k -= 2 {
		out *= float64(k)
	}
	return out
}

// newFunc builds a normalized Gaussian.
func newFunc(atom int, l [3]int, alpha float64, center geom.Vec3, onsite float64) Func {
	lt := l[0] + l[1] + l[2]
	n := math.Pow(2*alpha/math.Pi, 0.75) * math.Pow(4*alpha, float64(lt)/2)
	n /= math.Sqrt(doubleFactorial(l[0]) * doubleFactorial(l[1]) * doubleFactorial(l[2]))
	return Func{Atom: atom, L: l, Alpha: alpha, Norm: n, Center: center, OnsiteE: onsite}
}

// Set is the basis of a fragment.
type Set struct {
	Funcs []Func
	// FirstOfAtom[a] is the index of atom a's first basis function;
	// functions of an atom are contiguous.
	FirstOfAtom []int
	// NumElectrons is the total number of valence electrons.
	NumElectrons int
}

// ForAtoms builds the minimal basis for a list of atoms. Positions are in
// bohr.
func ForAtoms(els []constants.Element, posBohr []geom.Vec3) *Set {
	s := &Set{FirstOfAtom: make([]int, len(els))}
	for a, el := range els {
		s.FirstOfAtom[a] = len(s.Funcs)
		alpha := el.GaussianAlpha()
		s.Funcs = append(s.Funcs, newFunc(a, [3]int{0, 0, 0}, alpha, posBohr[a], el.OnsiteS()))
		if el.NumOrbitals() == 4 {
			s.Funcs = append(s.Funcs,
				newFunc(a, [3]int{1, 0, 0}, alpha, posBohr[a], el.OnsiteP()),
				newFunc(a, [3]int{0, 1, 0}, alpha, posBohr[a], el.OnsiteP()),
				newFunc(a, [3]int{0, 0, 1}, alpha, posBohr[a], el.OnsiteP()),
			)
		}
		s.NumElectrons += el.NumValence()
	}
	return s
}

// Size returns the number of basis functions.
func (s *Set) Size() int { return len(s.Funcs) }

// SupportRadius returns the radius (bohr) beyond which the function is
// negligible (envelope < 1e−8 of its peak scale).
func (f *Func) SupportRadius() float64 {
	return math.Sqrt(19.0 / f.Alpha)
}

// ValueAt evaluates the function at point p (bohr).
func (f *Func) ValueAt(p geom.Vec3) float64 {
	d := p.Sub(f.Center)
	r2 := d.Norm2()
	v := f.Norm * math.Exp(-f.Alpha*r2)
	for k := 0; k < f.L[0]; k++ {
		v *= d.X
	}
	for k := 0; k < f.L[1]; k++ {
		v *= d.Y
	}
	for k := 0; k < f.L[2]; k++ {
		v *= d.Z
	}
	return v
}

// GradAt evaluates ∇χ at point p (bohr).
func (f *Func) GradAt(p geom.Vec3) geom.Vec3 {
	d := p.Sub(f.Center)
	e := f.Norm * math.Exp(-f.Alpha*d.Norm2())
	mono := func(x float64, l int) float64 {
		v := 1.0
		for k := 0; k < l; k++ {
			v *= x
		}
		return v
	}
	px, py, pz := mono(d.X, f.L[0]), mono(d.Y, f.L[1]), mono(d.Z, f.L[2])
	// d/dx [x^l e^{-αx²}] = (l·x^{l−1} − 2αx^{l+1}) e^{-αx²}
	dx := -2 * f.Alpha * d.X * px
	if f.L[0] > 0 {
		dx += float64(f.L[0]) * mono(d.X, f.L[0]-1)
	}
	dy := -2 * f.Alpha * d.Y * py
	if f.L[1] > 0 {
		dy += float64(f.L[1]) * mono(d.Y, f.L[1]-1)
	}
	dz := -2 * f.Alpha * d.Z * pz
	if f.L[2] > 0 {
		dz += float64(f.L[2]) * mono(d.Z, f.L[2]-1)
	}
	return geom.V(dx*py*pz*e, px*dy*pz*e, px*py*dz*e)
}

// HessAt evaluates ∂²χ/∂r_a∂r_b at point p (bohr), row a, column b: per
// axis the factor x^l·e^{−αx²} and its first two derivatives (axisDerivs),
// multiplied across the axes.
func (f *Func) HessAt(p geom.Vec3) (h [3][3]float64) {
	d := p.Sub(f.Center)
	e := f.Norm * math.Exp(-f.Alpha*d.Norm2())
	x0, x1, x2 := axisDerivs(d.X, f.Alpha, f.L[0])
	y0, y1, y2 := axisDerivs(d.Y, f.Alpha, f.L[1])
	z0, z1, z2 := axisDerivs(d.Z, f.Alpha, f.L[2])
	h[0][0] = e * x2 * y0 * z0
	h[1][1] = e * x0 * y2 * z0
	h[2][2] = e * x0 * y0 * z2
	h[0][1] = e * x1 * y1 * z0
	h[0][2] = e * x1 * y0 * z1
	h[1][2] = e * x0 * y1 * z1
	h[1][0], h[2][0], h[2][1] = h[0][1], h[0][2], h[1][2]
	return h
}

// axisDerivs returns x^l and the first two derivatives of x^l·e^{−αx²}
// divided by e^{−αx²}, l·x^{l−1} − 2α·x^{l+1} and
// l(l−1)·x^{l−2} − 2α(2l+1)·x^l + 4α²·x^{l+2}, for l = 0 or 1: the basis
// stops at p functions.
func axisDerivs(x, a float64, l int) (v, d1, d2 float64) {
	x2 := x * x
	if l == 0 {
		return 1, -2 * a * x, 4*a*a*x2 - 2*a
	}
	return x, 1 - 2*a*x2, (4*a*a*x2 - 6*a) * x
}

// os1D computes the Obara–Saika one-dimensional integrals
// s(i,j) = ∫ (x−A)^i (x−B)^j exp(−α(x−A)² − β(x−B)²) dx
// for all i ≤ imax, j ≤ jmax. The table is a fixed 4×4 array on the caller's
// stack: the basis stops at p functions and the dipole and derivative
// integrals add one power, the second derivatives two, so no index exceeds 3.
func os1D(alpha, beta, a, b float64, imax, jmax int) (s [4][4]float64) {
	p := alpha + beta
	mu := alpha * beta / p
	pc := (alpha*a + beta*b) / p
	s[0][0] = math.Sqrt(math.Pi/p) * math.Exp(-mu*(a-b)*(a-b))
	// Fill j = 0 column by raising i, then raise j across. Entries below
	// index 0 are zero.
	for i := 0; i < imax; i++ {
		var below float64
		if i > 0 {
			below = s[i-1][0]
		}
		s[i+1][0] = (pc-a)*s[i][0] + float64(i)/(2*p)*below
	}
	for j := 0; j < jmax; j++ {
		for i := 0; i <= imax; i++ {
			var belowI, belowJ float64
			if i > 0 {
				belowI = s[i-1][j]
			}
			if j > 0 {
				belowJ = s[i][j-1]
			}
			s[i][j+1] = (pc-b)*s[i][j] +
				(float64(i)*belowI+float64(j)*belowJ)/(2*p)
		}
	}
	return s
}

// axes1D returns the per-axis OS tables for a pair of functions, with room
// for `extra` additional powers on each index (needed by dipole and
// derivative integrals).
func axes1D(f, g *Func, extra int) (out [3][4][4]float64) {
	ca := [3]float64{f.Center.X, f.Center.Y, f.Center.Z}
	cb := [3]float64{g.Center.X, g.Center.Y, g.Center.Z}
	for ax := 0; ax < 3; ax++ {
		out[ax] = os1D(f.Alpha, g.Alpha, ca[ax], cb[ax], f.L[ax]+extra, g.L[ax]+extra)
	}
	return out
}

// Overlap returns <f|g>.
func Overlap(f, g *Func) float64 {
	t := axes1D(f, g, 0)
	return f.Norm * g.Norm *
		t[0][f.L[0]][g.L[0]] * t[1][f.L[1]][g.L[1]] * t[2][f.L[2]][g.L[2]]
}

// OverlapDeriv returns d<f|g>/dA where A is the center of f.
// (By translational invariance d/dB = −d/dA.)
func OverlapDeriv(f, g *Func) geom.Vec3 {
	t := axes1D(f, g, 1)
	base := [3]float64{
		t[0][f.L[0]][g.L[0]],
		t[1][f.L[1]][g.L[1]],
		t[2][f.L[2]][g.L[2]],
	}
	var d [3]float64
	for ax := 0; ax < 3; ax++ {
		i, j := f.L[ax], g.L[ax]
		// d/dA of the 1D factor: 2α·s(i+1,j) − i·s(i−1,j).
		dd := 2 * f.Alpha * t[ax][i+1][j]
		if i > 0 {
			dd -= float64(i) * t[ax][i-1][j]
		}
		prod := dd
		for o := 0; o < 3; o++ {
			if o != ax {
				prod *= base[o]
			}
		}
		d[ax] = prod
	}
	n := f.Norm * g.Norm
	return geom.V(n*d[0], n*d[1], n*d[2])
}

// PairTables returns the per-axis OS tables of two s or p functions' centers
// and exponents at the extent OverlapHessianFrom needs for any pair of s or p
// functions with those centers and exponents. An entry does not depend on the
// table's extent, so one table serves every function pair of two atoms of a
// minimal basis (ForAtoms gives an atom's functions one exponent).
func PairTables(f, g *Func) (out [3][4][4]float64) {
	ca := [3]float64{f.Center.X, f.Center.Y, f.Center.Z}
	cb := [3]float64{g.Center.X, g.Center.Y, g.Center.Z}
	for ax := 0; ax < 3; ax++ {
		out[ax] = os1D(f.Alpha, g.Alpha, ca[ax], cb[ax], 3, 1)
	}
	return out
}

// OverlapHessianFrom returns ∂²<f|g>/∂A_a∂A_b (row a, column b) where A is
// the center of f, read from tables t of the two functions' centers and
// exponents (axes1D with two extra powers, or PairTables). The pair depends
// on A − B alone, so ∂²/∂A∂B = −∂²/∂A² and ∂²/∂B² = ∂²/∂A². Per axis the 1D
// factor's second A-derivative is
// 4α²·s(i+2,j) − 2α(2i+1)·s(i,j) + i(i−1)·s(i−2,j).
func OverlapHessianFrom(t *[3][4][4]float64, f, g *Func) (h [3][3]float64) {
	var base, der, der2 [3]float64
	for ax := 0; ax < 3; ax++ {
		i, j, s, al := f.L[ax], g.L[ax], &t[ax], f.Alpha
		base[ax] = s[i][j]
		der[ax] = 2 * al * s[i+1][j]
		der2[ax] = 4*al*al*s[i+2][j] - 2*al*float64(2*i+1)*s[i][j]
		if i > 0 {
			der[ax] -= float64(i) * s[i-1][j]
		}
		if i > 1 {
			der2[ax] += float64(i*(i-1)) * s[i-2][j]
		}
	}
	n := f.Norm * g.Norm
	for a := 0; a < 3; a++ {
		for b := a; b < 3; b++ {
			prod := n
			for o := 0; o < 3; o++ {
				switch {
				case o == a && o == b:
					prod *= der2[o]
				case o == a || o == b:
					prod *= der[o]
				default:
					prod *= base[o]
				}
			}
			h[a][b], h[b][a] = prod, prod
		}
	}
	return h
}

// DipoleDeriv returns d<f| r_k |g>/dA for k = x, y, z, where A is the center
// of f: element k is the gradient of D^k. Moving both centers moves the
// operator's origin relative to them, so by translation
// d/dA + d/dB = δ_ak·<f|g> — on a same-atom pair the block moves with its
// atom and its derivative is S there.
func DipoleDeriv(f, g *Func) [3]geom.Vec3 {
	t := axes1D(f, g, 1)
	cb := [3]float64{g.Center.X, g.Center.Y, g.Center.Z}
	// Per axis: the overlap factor s(i,j), its A-derivative, the moment
	// factor with x = (x−B) + B, s(i,j+1) + B·s(i,j) — the form whose
	// A-derivative stays inside the 3×3 table — and that moment's A-derivative.
	var base, der, mom, dmom [3]float64
	for ax := 0; ax < 3; ax++ {
		i, j, s := f.L[ax], g.L[ax], &t[ax]
		m := func(i int) float64 { return s[i][j+1] + cb[ax]*s[i][j] }
		base[ax], mom[ax] = s[i][j], m(i)
		der[ax] = 2 * f.Alpha * s[i+1][j]
		dmom[ax] = 2 * f.Alpha * m(i+1)
		if i > 0 {
			der[ax] -= float64(i) * s[i-1][j]
			dmom[ax] -= float64(i) * m(i-1)
		}
	}
	n := f.Norm * g.Norm
	var out [3]geom.Vec3
	for k := 0; k < 3; k++ {
		var d [3]float64
		for ax := 0; ax < 3; ax++ {
			prod := n
			for o := 0; o < 3; o++ {
				switch {
				case o == ax && o == k:
					prod *= dmom[o]
				case o == ax:
					prod *= der[o]
				case o == k:
					prod *= mom[o]
				default:
					prod *= base[o]
				}
			}
			d[ax] = prod
		}
		out[k] = geom.V(d[0], d[1], d[2])
	}
	return out
}

// Dipole returns <f| r |g> in absolute coordinates (bohr).
func Dipole(f, g *Func) geom.Vec3 {
	t := axes1D(f, g, 1)
	base := [3]float64{
		t[0][f.L[0]][g.L[0]],
		t[1][f.L[1]][g.L[1]],
		t[2][f.L[2]][g.L[2]],
	}
	ca := [3]float64{f.Center.X, f.Center.Y, f.Center.Z}
	var d [3]float64
	for ax := 0; ax < 3; ax++ {
		i, j := f.L[ax], g.L[ax]
		// x = (x−A) + A ⇒ <x> factor = s(i+1,j) + A·s(i,j).
		mom := t[ax][i+1][j] + ca[ax]*t[ax][i][j]
		prod := mom
		for o := 0; o < 3; o++ {
			if o != ax {
				prod *= base[o]
			}
		}
		d[ax] = prod
	}
	n := f.Norm * g.Norm
	return geom.V(n*d[0], n*d[1], n*d[2])
}

// OverlapMatrix returns the full overlap matrix S.
func (s *Set) OverlapMatrix() *linalg.Matrix {
	n := s.Size()
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, Overlap(&s.Funcs[i], &s.Funcs[i]))
		for j := i + 1; j < n; j++ {
			v := Overlap(&s.Funcs[i], &s.Funcs[j])
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// DipoleMatrices returns the three Cartesian dipole matrices D^x, D^y, D^z
// with D^k_ij = <i| r_k |j>.
func (s *Set) DipoleMatrices() [3]*linalg.Matrix {
	n := s.Size()
	var out [3]*linalg.Matrix
	for k := range out {
		out[k] = linalg.NewMatrix(n, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d := Dipole(&s.Funcs[i], &s.Funcs[j])
			v := [3]float64{d.X, d.Y, d.Z}
			for k := 0; k < 3; k++ {
				out[k].Set(i, j, v[k])
				out[k].Set(j, i, v[k])
			}
		}
	}
	return out
}
