package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refEigSym is the eigensolver as it stood before the workspace form: a clone
// of the input, tred2 through At/Set/Add, tql2 with a freshly transposed
// eigenvector store. It is the differential reference of EigSymWork (the
// gemmref/cgref pattern): same operations in the same order, so the same bits.
func refEigSym(a *Matrix) ([]float64, *Matrix) {
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	refTred2(z, d, e)
	if n > 0 {
		zt := z.T()
		for i := 1; i < n; i++ {
			e[i-1] = e[i]
		}
		if err := tqlRows(d, e, zt.Data, n); err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			row := zt.Row(i)
			for j := 0; j < n; j++ {
				z.Set(j, i, row[j])
			}
		}
	}
	return d, z
}

func refTred2(z *Matrix, d, e []float64) {
	n := z.Rows
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(z.At(i, k))
			}
			if scale == 0 {
				e[i] = z.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v := z.At(i, k) / scale
					z.Set(i, k, v)
					h += v * v
				}
				f := z.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				z.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					z.Set(j, i, z.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += z.At(j, k) * z.At(i, k)
					}
					for k := j + 1; k <= l; k++ {
						g += z.At(k, j) * z.At(i, k)
					}
					e[j] = g / h
					f += e[j] * z.At(i, j)
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = z.At(i, j)
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						z.Add(j, k, -(f*e[k] + g*z.At(i, k)))
					}
				}
			}
		} else {
			e[i] = z.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += z.At(i, k) * z.At(k, j)
				}
				for k := 0; k <= l; k++ {
					z.Add(k, j, -g*z.At(k, i))
				}
			}
		}
		d[i] = z.At(i, i)
		z.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			z.Set(j, i, 0)
			z.Set(i, j, 0)
		}
	}
}

// TestEigSymWorkMatchesEigSymBitwise: the workspace solver — tred2 on row
// slices, the transposed store and the off-diagonal kept between solves —
// returns the eigenvalues and eigenvectors of the allocating At/Set-indexed
// solver it replaced, bit for bit: on random symmetric matrices of the orders
// the fragment engine sees (and 1, 2), on a matrix with degenerate
// eigenvalues, on diagonal input (tred2's scale == 0 branch), and on repeated
// solves in one workspace, into a separate matrix and in place.
func TestEigSymWorkMatchesEigSymBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 6, 12, 40} {
		w := NewEigSymWork(n)
		inputs := map[string]*Matrix{"random": randomSymmetric(rng, n), "again": randomSymmetric(rng, n)}
		diag := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			diag.Set(i, i, float64((i*7)%5)-1.5)
		}
		inputs["diagonal"] = diag
		// Q·diag(1,1,2,2,…)·Qᵀ for a random orthogonal Q: pairs of equal
		// eigenvalues.
		_, q := refEigSym(randomSymmetric(rng, n))
		lam := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			lam.Set(i, i, float64(1+i/2))
		}
		deg := MatMul(false, true, MatMul(false, false, q, lam), q)
		deg.Symmetrize()
		inputs["degenerate"] = deg
		for name, a := range inputs {
			wantVals, wantVecs := refEigSym(a)
			keep := a.Clone()
			vals, vecs := make([]float64, n), NewMatrix(n, n)
			if err := w.Solve(a, vals, vecs); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if !bitEqual(vals, wantVals) || !bitEqual(vecs.Data, wantVecs.Data) {
				t.Errorf("n=%d %s: workspace solve differs from the reference", n, name)
			}
			if !bitEqual(a.Data, keep.Data) {
				t.Errorf("n=%d %s: Solve modified its input", n, name)
			}
			if err := w.Solve(a, vals, a); err != nil {
				t.Fatal(err)
			}
			if !bitEqual(vals, wantVals) || !bitEqual(a.Data, wantVecs.Data) {
				t.Errorf("n=%d %s: in-place solve differs from the reference", n, name)
			}
			gotVals, gotVecs := EigSym(keep)
			if !bitEqual(gotVals, wantVals) || !bitEqual(gotVecs.Data, wantVecs.Data) {
				t.Errorf("n=%d %s: EigSym differs from the reference", n, name)
			}
		}
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEigSymWorkNonConvergenceIsTyped: a NaN-poisoned matrix exhausts the QL
// sweeps and comes back as ErrEigNoConvergence from the workspace form.
func TestEigSymWorkNonConvergenceIsTyped(t *testing.T) {
	a := randomSymmetric(rand.New(rand.NewSource(3)), 6)
	a.Set(2, 3, math.NaN())
	a.Set(3, 2, math.NaN())
	err := NewEigSymWork(6).Solve(a, make([]float64, 6), NewMatrix(6, 6))
	if !errors.Is(err, ErrEigNoConvergence) {
		t.Fatalf("NaN matrix: %v, want ErrEigNoConvergence", err)
	}
}
