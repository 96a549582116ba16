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

// refTred2 is tred2 in Numerical Recipes' column form: refHouseholder's
// reduction, then the accumulation with each g_j formed down column j.
func refTred2(z *Matrix, d, e []float64) {
	n := z.Rows
	refHouseholder(z, d, e, nil, nil)
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
// the fragment engine sees, every remainder of the reduction's 4-row grouping
// (5–9), the exact spectral route's n = 243, and 1, 2; on a matrix with degenerate
// eigenvalues, on diagonal input (tred2's scale == 0 branch), and on repeated
// solves in one workspace, into a separate matrix and in place.
func TestEigSymWorkMatchesEigSymBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 6, 7, 8, 9, 12, 40, 243} {
		if n == 243 && testing.Short() {
			continue // the At/Set reference takes seconds at this order under -race
		}
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

// refHouseholder is householder in Numerical Recipes' column form, as it ran
// in production before the product and the update were reordered to read
// rows: y[j] summed down column j of the lower triangle (stride n), and the
// reflector applied to p's rows as it is formed. It is householder's bitwise
// oracle (the gemmref pattern).
func refHouseholder(z *Matrix, d, e []float64, p *Matrix, s []float64) {
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
			w := p.Cols
			clear(s)
			for k := 0; k < i; k++ {
				for c, v := range p.Data[k*w : (k+1)*w] {
					s[c] += zi[k] * v
				}
			}
			for k := 0; k < i; k++ {
				f := zd[k*n+i]
				pk := p.Data[k*w : (k+1)*w]
				for c := range pk {
					pk[c] -= s[c] * f
				}
			}
		}
		d[i] = h
	}
}

// TestHouseholderMatchesColumnFormBitwise: the row-ordered reduction leaves
// z (reflectors, u/h and diagonal), d, e[1:] and the carried vectors p bit
// for bit as the column form does — for every remainder of symvLower's 4-row
// grouping (n = 0–9) and the exact route's orders 57, 108 and 243; on random
// matrices, one with a zero row and column (its reflector skipped), and a
// block-diagonal one (a reflector of scale 0 under a non-zero diagonal); with
// no vectors carried, one and seven.
func TestHouseholderMatchesColumnFormBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 57, 108, 243} {
		zeroRow := randomSymmetric(rng, n)
		blocks := randomSymmetric(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == n/2 || j == n/2 {
					zeroRow.Set(i, j, 0)
				}
				if (i < n/2) != (j < n/2) {
					blocks.Set(i, j, 0)
				}
			}
		}
		for _, in := range []struct {
			name string
			a    *Matrix
		}{{"random", randomSymmetric(rng, n)}, {"zero row", zeroRow}, {"blocks", blocks}} {
			name, a := in.name, in.a
			for _, cols := range []int{0, 1, 7} {
				var p, wp *Matrix
				if cols > 0 {
					p = randomMatrix(rng, n, cols)
					wp = p.Clone()
				}
				z, d, e := a.Clone(), make([]float64, n), make([]float64, n)
				wz, wd, we := a.Clone(), make([]float64, n), make([]float64, n)
				householder(z, d, e, p, make([]float64, cols))
				refHouseholder(wz, wd, we, wp, make([]float64, cols))
				if !bitEqual(z.Data, wz.Data) || !bitEqual(d, wd) || n > 0 && !bitEqual(e[1:], we[1:]) {
					t.Errorf("n=%d %s, %d columns: reduction differs from the column form", n, name, cols)
				}
				if cols > 0 && !bitEqual(p.Data, wp.Data) {
					t.Errorf("n=%d %s, %d columns: carried vectors differ from the column form", n, name, cols)
				}
			}
		}
	}
}

// TestEigSymWorkSolveAllocatesNothing: the workspace keeps everything a
// Solve needs, the accumulation's scratch row included.
func TestEigSymWorkSolveAllocatesNothing(t *testing.T) {
	const n = 57
	a := randomSymmetric(rand.New(rand.NewSource(5)), n)
	w, vals, vecs := NewEigSymWork(n), make([]float64, n), NewMatrix(n, n)
	allocs := testing.AllocsPerRun(5, func() {
		if err := w.Solve(a, vals, vecs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Solve allocates %v times per call, want 0", allocs)
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
