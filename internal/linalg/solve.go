package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite matrix. The input is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky on non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			lrow := l.Row(i)
			jrow := l.Row(j)
			for k := 0; k < j; k++ {
				s -= lrow[k] * jrow[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// ForwardSolve solves L·x = b for lower-triangular L, overwriting nothing.
func ForwardSolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	return x
}

// BackSolveT solves Lᵀ·x = b for lower-triangular L.
func BackSolveT(l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// GeneralizedEigSym solves the symmetric-definite generalized eigenproblem
// H·C = S·C·diag(ε), the central eigenproblem of the SCF engine, by the
// standard Cholesky reduction: S = L·Lᵀ, H̃ = L⁻¹·H·L⁻ᵀ, H̃·y = ε·y,
// C = L⁻ᵀ·y. Eigenvalues are ascending; column j of C is the S-orthonormal
// eigenvector for ε[j] (Cᵀ·S·C = I).
func GeneralizedEigSym(h, s *Matrix) ([]float64, *Matrix, error) {
	if h.Rows != h.Cols || s.Rows != s.Cols || h.Rows != s.Rows {
		panic("linalg: GeneralizedEigSym shape mismatch")
	}
	n := h.Rows
	l, err := Cholesky(s)
	if err != nil {
		return nil, nil, err
	}
	// Compute H̃ = L⁻¹ H L⁻ᵀ column by column: first W = L⁻¹ H
	// (forward solve per column), then H̃ = W L⁻ᵀ i.e. H̃ᵀ = L⁻¹ Wᵀ.
	w := NewMatrix(n, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = h.At(i, j)
		}
		x := ForwardSolve(l, col)
		for i := 0; i < n; i++ {
			w.Set(i, j, x[i])
		}
	}
	ht := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		copy(col, w.Row(j)) // row j of W = column j of Wᵀ
		x := ForwardSolve(l, col)
		for i := 0; i < n; i++ {
			ht.Set(j, i, x[i]) // (L⁻¹Wᵀ)ᵀ row j
		}
	}
	ht.Symmetrize()
	eps, y := EigSym(ht)
	// Back-transform eigenvectors: C = L⁻ᵀ Y, column by column.
	c := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			col[i] = y.At(i, j)
		}
		x := BackSolveT(l, col)
		for i := 0; i < n; i++ {
			c.Set(i, j, x[i])
		}
	}
	return eps, c, nil
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
// nothing. After an error both hold garbage.
func SolveLinearInPlace(m *Matrix, x []float64) error {
	if m.Rows != m.Cols || len(x) != m.Rows {
		panic("linalg: SolveLinear shape mismatch")
	}
	n := m.Rows
	for k := 0; k < n; k++ {
		// pivot
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
			x[k], x[p] = x[p], x[k]
		}
		pivRow := m.Row(k)
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
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := m.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}
