package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrEigNoConvergence reports that the implicit-shift QL iteration used up its
// sweeps on some eigenvalue — in practice a non-finite input matrix. It is a
// deterministic outcome of the matrix: the same input fails the same way.
var ErrEigNoConvergence = errors.New("linalg: symmetric eigensolver did not converge")

// EigSymWork is the symmetric eigensolver for matrices of one order with its
// storage kept: the transposed eigenvector store of the QL iteration and the
// off-diagonal of the tridiagonal form. A Solve allocates nothing. One Solve
// at a time.
//
// The implementation is the classic Householder tridiagonalization (tred2)
// followed by the implicit-shift QL iteration (tql2), the same reduction used
// by dense LAPACK drivers.
type EigSymWork struct {
	n     int
	zt, e []float64
}

// NewEigSymWork returns a solver for n×n matrices.
func NewEigSymWork(n int) *EigSymWork {
	return &EigSymWork{n: n, zt: make([]float64, n*n), e: make([]float64, n)}
}

// Solve computes all eigenvalues and eigenvectors of the symmetric matrix a:
// the eigenvalues ascending into vals, eigenvector j into column j of vecs.
// a is not modified unless vecs is a itself. The error wraps
// ErrEigNoConvergence; vals and vecs then hold no result.
func (w *EigSymWork) Solve(a *Matrix, vals []float64, vecs *Matrix) error {
	n := w.n
	if a.Rows != n || a.Cols != n || vecs.Rows != n || vecs.Cols != n || len(vals) != n {
		panic("linalg: EigSymWork.Solve shape mismatch")
	}
	if n == 0 {
		return nil
	}
	if vecs != a {
		vecs.CopyFrom(a)
	}
	tred2(vecs, vals, w.e)
	return tql2(vals, w.e, vecs, w.zt)
}

// EigSymProjected computes the eigenvalues of the symmetric matrix a,
// ascending into vals, and the projection of p's columns on every
// eigenvector, in place: on entry row i of p holds entry i of each of its
// p.Cols vectors; on return row k holds v_kᵀ·(each vector) for the
// eigenvector v_k of vals[k]. The eigenvectors are never formed: the
// tridiagonal reduction applies each reflector to p as it forms it, and the
// QL iteration carries p's rows through its rotations the way
// EigSymTridiagFirstRow carries one component. That skips the reduction's
// accumulation and all but p.Cols entries of every rotated row. The
// eigenvalues are bit-identical to EigSymWork.Solve's. a is destroyed. The
// error wraps ErrEigNoConvergence; vals and p then hold no result.
func EigSymProjected(a *Matrix, vals []float64, p *Matrix) error {
	n := a.Rows
	if a.Cols != n || p.Rows != n || len(vals) != n {
		panic("linalg: EigSymProjected shape mismatch")
	}
	if n == 0 {
		return nil
	}
	e := make([]float64, n)
	householder(a, vals, e, p, make([]float64, p.Cols))
	for i := range vals {
		vals[i] = a.Data[i*n+i]
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	return tqlRows(vals, e, p.Data, p.Cols)
}

// EigSym is the one-shot form of EigSymWork.Solve: it returns the eigenvalues
// in ascending order and a matrix whose column j is the eigenvector for
// eigenvalue j, both freshly allocated. The input is not modified. A matrix
// the iteration cannot converge on (a non-finite one) panics; callers that
// must survive one use the workspace form.
func EigSym(a *Matrix) ([]float64, *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: EigSym on non-square matrix")
	}
	n := a.Rows
	d, z := make([]float64, n), NewMatrix(n, n)
	if err := NewEigSymWork(n).Solve(a, d, z); err != nil {
		panic(err)
	}
	return d, z
}

// EigSymTridiagFirstRow computes, in place and without allocating, the
// eigenvalues of a symmetric tridiagonal matrix and the first component of
// every normalized eigenvector — all a Gauss quadrature rule needs of the
// eigenvectors (Golub–Welsch: the weights are those components squared).
// On entry d holds the diagonal and e[:n−1] the off-diagonal (e has length
// n; e[n−1] is scratch). On return d holds the ascending eigenvalues, z[j]
// the first component of eigenvector j, and e is destroyed.
//
// It runs tql2's rotations and selection sort on one-element rows, so the
// values are bit-identical to row 0 of the full eigenvector matrix at O(n²)
// instead of O(n³): a component of the accumulated rotations never reads any
// other component.
func EigSymTridiagFirstRow(d, e, z []float64) error {
	n := len(d)
	if len(e) != n || len(z) != n {
		panic("linalg: EigSymTridiagFirstRow needs len(e) == len(z) == len(d)")
	}
	if n == 0 {
		return nil
	}
	clear(z)
	z[0] = 1
	return tqlRows(d, e, z, 1)
}

// tred2 reduces the symmetric matrix stored in z to tridiagonal form with
// diagonal d and off-diagonal e (e[0] unused space at index n-1 after shift),
// accumulating the orthogonal transformation in z.
// This is an adaptation of the EISPACK/Numerical Recipes tred2 routine.
func tred2(z *Matrix, d, e []float64) {
	householder(z, d, e, nil, nil)
	n := z.Rows
	zd := z.Data
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		zi := zd[i*n : (i+1)*n]
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += zi[k] * zd[k*n+j]
				}
				for k := 0; k <= l; k++ {
					zd[k*n+j] += -g * zd[k*n+i]
				}
			}
		}
		d[i] = zi[i]
		zi[i] = 1
		for j := 0; j <= l; j++ {
			zd[j*n+i] = 0
			zi[j] = 0
		}
	}
}

// householder is tred2's reduction: rows n−1 … 1 of the symmetric matrix in
// z are annihilated below the subdiagonal by reflectors P_i = I − u·uᵀ/h,
// u kept in row i and u/h in column i, h in d[i]; e[1:] receives the
// subdiagonal and the diagonal stays on z's. When p is non-nil each
// reflector is also applied to the rows of p (n rows of p.Cols entries, s
// their scratch) as it is formed, so p ends as Qᵀ·p for the Q whose columns
// tred2 accumulates.
func householder(z *Matrix, d, e []float64, p *Matrix, s []float64) {
	n := z.Rows
	zd := z.Data
	for i := n - 1; i > 0; i-- {
		l := i - 1
		zi := zd[i*n : (i+1)*n]
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(zi[k])
			}
			if scale == 0 {
				e[i] = zi[l]
			} else {
				for k := 0; k <= l; k++ {
					v := zi[k] / scale
					zi[k] = v
					h += v * v
				}
				f := zi[l]
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				zi[l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					zj := zd[j*n : (j+1)*n]
					zj[i] = zi[j] / h
					g = 0
					for k := 0; k <= j; k++ {
						g += zj[k] * zi[k]
					}
					for k := j + 1; k <= l; k++ {
						g += zd[k*n+j] * zi[k]
					}
					e[j] = g / h
					f += e[j] * zi[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					zj := zd[j*n : (j+1)*n]
					f = zi[j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						zj[k] += -(f*e[k] + g*zi[k])
					}
				}
			}
		} else {
			e[i] = zi[l]
		}
		if p != nil && h != 0 {
			reflect(p, s, zi[:i], zd[i:], n)
		}
		d[i] = h
	}
}

// reflect applies P = I − u·uᵀ/h to the first len(u) rows of p, reading u/h
// at stride n from uh.
func reflect(p *Matrix, s, u, uh []float64, n int) {
	w := p.Cols
	s = s[:w]
	clear(s)
	for k, uk := range u {
		for c, v := range p.Data[k*w : (k+1)*w] {
			s[c] += uk * v
		}
	}
	for k := range u {
		f := uh[k*n]
		pk := p.Data[k*w : (k+1)*w]
		for c := range pk {
			pk[c] -= s[c] * f
		}
	}
}

// tql2 computes eigenvalues (into d, ascending) and eigenvectors (columns of
// z, which must be initialized with the tred2 accumulation or the identity)
// of a symmetric tridiagonal matrix via the implicit QL method.
// On input e[1..n-1] holds the subdiagonal (tred2 convention); e is destroyed.
//
// Internally the eigenvectors are kept transposed (one per row, in the n²
// floats of zt) so the Givens-rotation updates run over contiguous memory —
// this loop dominates the SCF engine's profile.
func tql2(d, e []float64, z *Matrix, zt []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		for j, v := range z.Row(i) {
			zt[j*n+i] = v
		}
	}
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	if err := tqlRows(d, e, zt, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := zt[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			z.Data[j*n+i] = row[j]
		}
	}
	return nil
}

// givensNorm returns √(f²+g²), the norm a QL rotation divides by. While the
// sum of squares lies in (2⁻¹⁰⁰⁰, 2¹⁰⁰⁰) — neither operand beyond 2⁵⁰⁰, where
// a square overflows, nor both below 2⁻⁵⁰⁰, where the squares lose digits —
// the plain square root is correct to rounding and a fraction of math.Hypot's
// cost; outside that range, and for non-finite operands, Hypot's scaled form
// keeps its overflow, underflow and NaN behaviour.
func givensNorm(f, g float64) float64 {
	if s := f*f + g*g; s > 0x1p-1000 && s < 0x1p1000 {
		return math.Sqrt(s)
	}
	return math.Hypot(f, g)
}

// tqlRows is the implicit-shift QL iteration and the ascending selection
// sort on transposed eigenvector storage: zt holds n = len(d) rows of w
// entries, row i being the carried components of eigenvector i. tql2 carries
// all n components (w = n), EigSymTridiagFirstRow only the first (w = 1),
// EigSymProjected one per projected vector; every rotation and swap treats
// the w entries of a row independently, so a component's bits do not depend
// on which others ride along. On input e[0..n-2] holds the subdiagonal; e is
// destroyed.
func tqlRows(d, e, zt []float64, w int) error {
	n := len(d)
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64 ||
					math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > 80 {
				return fmt.Errorf("%w (row %d)", ErrEigNoConvergence, l)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := givensNorm(g, 1)
			sg := r
			if g < 0 {
				sg = -r
			}
			g = d[m] - d[l] + e[l]/(g+sg)
			s, c := 1.0, 1.0
			p := 0.0
			split := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = givensNorm(f, g)
				e[i+1] = r
				if r == 0 {
					// The rotation underflowed: e[i+1] is zero and the
					// sweep restarts on the block l..i+1.
					d[i+1] -= p
					e[m] = 0
					split = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				zi := zt[i*w : (i+1)*w]
				zi1 := zt[(i+1)*w : (i+2)*w]
				zi1 = zi1[:len(zi)] // one length for both rows: no bounds checks below
				for k, u := range zi {
					v := zi1[k]
					zi1[k] = s*u + c*v
					zi[k] = c*u - s*v
				}
			}
			// Only a split skips the end of the sweep. r is no flag for it:
			// the sweep reuses it, and on exactly degenerate diagonals a
			// complete sweep can leave it exactly zero.
			if split {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	// Sort eigenvalues ascending, permuting the rows with them.
	for i := 0; i < n-1; i++ {
		k := i
		p := d[i]
		for j := i + 1; j < n; j++ {
			if d[j] < p {
				k = j
				p = d[j]
			}
		}
		if k != i {
			d[k] = d[i]
			d[i] = p
			ri, rk := zt[i*w:(i+1)*w], zt[k*w:(k+1)*w]
			for j := range ri {
				ri[j], rk[j] = rk[j], ri[j]
			}
		}
	}
	return nil
}
