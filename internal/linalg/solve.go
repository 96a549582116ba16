package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is wrapped by CholeskyInto when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// CholeskyInto writes into l the lower-triangular factor L of A = L·Lᵀ for the
// symmetric matrix a, of which it reads the lower triangle; l's upper triangle
// is zeroed. A pivot L_ii² that is not above minPivot — a matrix that is
// indefinite, singular or near it, or not finite — is an error wrapping
// ErrNotPositiveDefinite that names the pivot, and leaves l partly written.
// l may be a itself. It allocates nothing.
func CholeskyInto(l, a *Matrix, minPivot float64) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		panic("linalg: CholeskyInto shape mismatch")
	}
	for i := 0; i < n; i++ {
		ai, li := a.Row(i), l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)[:j+1]
			s := ai[j]
			for k, v := range lj[:j] {
				s -= li[k] * v
			}
			if j < i {
				li[j] = s / lj[j]
				continue
			}
			if !(s > minPivot) {
				return fmt.Errorf("%w (pivot %d is %g)", ErrNotPositiveDefinite, i, s)
			}
			li[i] = math.Sqrt(s)
		}
		clear(li[i+1:])
	}
	return nil
}

// InvertLowerInto writes into dst the inverse of the lower-triangular matrix
// l (non-zero diagonal), itself lower triangular, by row-wise forward
// substitution. dst must not be l. It allocates nothing.
func InvertLowerInto(dst, l *Matrix) {
	n := l.Rows
	if l.Cols != n || dst.Rows != n || dst.Cols != n || dst == l {
		panic("linalg: InvertLowerInto shape mismatch or aliasing")
	}
	for i := 0; i < n; i++ {
		xi, li := dst.Row(i), l.Row(i)
		clear(xi)
		// Row i of L·X = I: L_ii·X_i,: = e_i − Σ_{k<i} L_ik·X_k,:, where row k
		// of X is non-zero in columns ≤ k only.
		for k, a := range li[:i] {
			xk := dst.Row(k)[:k+1]
			for j, v := range xk {
				xi[j] -= a * v
			}
		}
		for j := range xi[:i] {
			xi[j] /= li[i]
		}
		xi[i] = 1 / li[i]
	}
}

var errSingular = errors.New("linalg: singular matrix in SolveLinear")

// SolveLinear solves the dense linear system A·x = b by Gaussian elimination
// with partial pivoting. A and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	x := append([]float64(nil), b...)
	if err := SolveLinearInPlace(a.Clone(), x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveLinearInPlace is SolveLinear on the caller's storage: it destroys m
// and overwrites x, the right-hand side, with the solution, allocating
// nothing. After an error both hold garbage. It is the one-column case of
// SolveLinearColumnsInPlace.
func SolveLinearInPlace(m *Matrix, x []float64) error {
	if m.Rows != m.Cols || len(x) != m.Rows {
		panic("linalg: SolveLinear shape mismatch")
	}
	return SolveLinearColumnsInPlace(m, &Matrix{Rows: len(x), Cols: 1, Data: x})
}

// SolveLinearColumnsInPlace solves m·X = B by Gaussian elimination with
// partial pivoting for the right-hand sides in the k columns of x (m.Rows×k),
// all eliminated at once: m is factored once, and each column's arithmetic is
// that of a one-column solve, bit for bit. It destroys m and overwrites x with
// the solutions, allocating nothing. After an error both hold garbage.
func SolveLinearColumnsInPlace(m, x *Matrix) error {
	if m.Rows != m.Cols || x.Rows != m.Rows {
		panic("linalg: SolveLinearColumns shape mismatch")
	}
	n := m.Rows
	for k := 0; k < n; k++ {
		p := k
		best := math.Abs(m.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(m.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return errSingular
		}
		if p != k {
			mk, mp := m.Row(k), m.Row(p)
			for j := k; j < n; j++ {
				mk[j], mp[j] = mp[j], mk[j]
			}
			xk, xp := x.Row(k), x.Row(p)
			for j := range xk {
				xk[j], xp[j] = xp[j], xk[j]
			}
		}
		pivRow, xk := m.Row(k), x.Row(k)
		piv := pivRow[k]
		for i := k + 1; i < n; i++ {
			row := m.Row(i)
			f := row[k] / piv
			if f == 0 {
				continue
			}
			row[k] = 0
			for j := k + 1; j < n; j++ {
				row[j] -= f * pivRow[j]
			}
			for j, v := range xk {
				x.Data[i*x.Cols+j] -= f * v
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		row, xi := m.Row(i), x.Row(i)
		for c := range xi {
			s := xi[c]
			for j := i + 1; j < n; j++ {
				s -= row[j] * x.Data[j*x.Cols+c]
			}
			xi[c] = s / row[i]
		}
	}
	return nil
}
