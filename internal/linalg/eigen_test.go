package linalg

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// checkEigenpairs verifies A·v = λ·v for every returned pair and that the
// eigenvector matrix is orthonormal.
func checkEigenpairs(t *testing.T, a *Matrix, vals []float64, vecs *Matrix, tol float64) {
	t.Helper()
	n := a.Rows
	for j := 0; j < n; j++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = vecs.At(i, j)
		}
		av := make([]float64, n)
		Gemv(false, 1, a, v, 0, av)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[j]*v[i]) > tol {
				t.Fatalf("eigenpair %d: residual %g at row %d", j, av[i]-vals[j]*v[i], i)
			}
		}
	}
	// Orthonormality VᵀV = I.
	vtv := MatMul(true, false, vecs, vecs)
	if d := vtv.MaxAbsDiff(Identity(n)); d > tol {
		t.Fatalf("eigenvectors not orthonormal: max deviation %g", d)
	}
	for j := 1; j < n; j++ {
		if vals[j] < vals[j-1] {
			t.Fatalf("eigenvalues not ascending at %d: %v > %v", j, vals[j-1], vals[j])
		}
	}
}

func TestEigSymDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 2)
	vals, vecs := EigSym(a)
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-13 {
			t.Fatalf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
	checkEigenpairs(t, a, vals, vecs, 1e-12)
}

func TestEigSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2})
	vals, vecs := EigSym(a)
	if math.Abs(vals[0]-1) > 1e-14 || math.Abs(vals[1]-3) > 1e-14 {
		t.Fatalf("eigenvalues %v, want [1 3]", vals)
	}
	checkEigenpairs(t, a, vals, vecs, 1e-13)
}

func TestEigSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 10, 30, 60} {
		a := randomSymmetric(rng, n)
		vals, vecs := EigSym(a)
		checkEigenpairs(t, a, vals, vecs, 1e-9)
		// trace preserved
		var sum float64
		for _, v := range vals {
			sum += v
		}
		var trace float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		if math.Abs(sum-trace) > 1e-9 {
			t.Fatalf("n=%d: eigenvalue sum %v != trace %v", n, sum, trace)
		}
	}
}

func TestEigSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSymmetric(rng, 12)
	v1, _ := EigSym(a)
	v2, vecs2 := jacobiEig(a, 60)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-9 {
			t.Fatalf("eigenvalue %d: QL %v vs Jacobi %v", i, v1[i], v2[i])
		}
	}
	checkEigenpairs(t, a, v2, vecs2, 1e-8)
}

// EigSymTridiag is the differential reference of EigSymTridiagFirstRow (the
// gemmref/cgref pattern; no production caller is left): all eigenvalues and
// the full eigenvector matrix of the symmetric tridiagonal matrix with
// diagonal d (length n) and off-diagonal e (length n−1), by tql2 on the
// identity. The inputs are not modified.
func EigSymTridiag(d, e []float64) ([]float64, *Matrix) {
	n := len(d)
	if len(e) != n-1 && !(n == 0 && len(e) == 0) {
		panic("linalg: EigSymTridiag off-diagonal length must be n-1")
	}
	dd := make([]float64, n)
	copy(dd, d)
	// tql2 uses the tred2 convention: ee[i] is the subdiagonal element
	// coupling rows i−1 and i, so ee[0] is unused.
	ee := make([]float64, n)
	copy(ee[1:], e)
	z := Identity(n)
	if err := tql2(dd, ee, z, make([]float64, n*n)); err != nil {
		panic(err)
	}
	return dd, z
}

// gagqShape builds the (2k−1)-point generalized averaged Gauss matrix T̂ of
// a k-step recurrence with random coefficients: α₁…α_k, α_{k−1}…α₁ on the
// diagonal, β₁…β_{k−1}, β_k, β_{k−2}…β₁ beside it.
func gagqShape(rng *rand.Rand, k int) (d, e []float64) {
	alpha, beta := make([]float64, k), make([]float64, k)
	for i := range alpha {
		alpha[i] = rng.NormFloat64()
		beta[i] = math.Abs(rng.NormFloat64()) + 0.1
	}
	d = append(d, alpha...)
	e = append(e, beta...)
	for i := k - 2; i >= 0; i-- {
		d = append(d, alpha[i])
	}
	for i := k - 3; i >= 0; i-- {
		e = append(e, beta[i])
	}
	return d, e
}

// TestFirstRowMatchesReferenceBitwise: the first-row routine returns exactly
// the eigenvalues and exactly row 0 of the eigenvector matrix of the full
// tql2, on every shape the quadrature meets: sizes 1, 2, 3, the early-
// terminated 107 and the full GAGQ 239, split matrices (zero β), repeated
// eigenvalues, and the mirrored T̂ itself.
func TestFirstRowMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	type tri struct {
		name string
		d, e []float64
	}
	var cases []tri
	for _, n := range []int{1, 2, 3, 107, 239} {
		d, e := make([]float64, n), make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		cases = append(cases, tri{"random" + itoa(n), d, e})
		ez := append([]float64(nil), e...)
		for i := 0; i < len(ez); i += 5 {
			ez[i] = 0
		}
		cases = append(cases, tri{"zero-beta" + itoa(n), d, ez})
		dr := make([]float64, n)
		for i := range dr {
			dr[i] = float64(i % 3)
		}
		cases = append(cases, tri{"repeated" + itoa(n), dr, make([]float64, n-1)})
		er := make([]float64, n-1)
		for i := range er {
			er[i] = 1e-9 * rng.NormFloat64()
		}
		cases = append(cases, tri{"near-repeated" + itoa(n), dr, er})
	}
	for _, k := range []int{2, 3, 54, 120} {
		d, e := gagqShape(rng, k)
		cases = append(cases, tri{"gagq" + itoa(k), d, e})
	}
	for _, c := range cases {
		n := len(c.d)
		vals, vecs := EigSymTridiag(c.d, c.e)
		d := append([]float64(nil), c.d...)
		e := make([]float64, n)
		copy(e, c.e)
		z := make([]float64, n)
		for i := range z {
			z[i] = math.NaN() // the routine must initialize z itself
		}
		if err := EigSymTridiagFirstRow(d, e, z); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for j := 0; j < n; j++ {
			if math.Float64bits(d[j]) != math.Float64bits(vals[j]) {
				t.Fatalf("%s: eigenvalue %d = %x, reference %x", c.name, j, math.Float64bits(d[j]), math.Float64bits(vals[j]))
			}
			if math.Float64bits(z[j]) != math.Float64bits(vecs.At(0, j)) {
				t.Fatalf("%s: first component %d = %v, reference %v", c.name, j, z[j], vecs.At(0, j))
			}
		}
	}
}

// TestTridiagonalOracle: the three QL entry points on a tridiagonal matrix —
// eigenvalues only, first row, full eigenvectors — return the eigenvalues of
// the dense matrix as the cyclic Jacobi method finds them, to 1e-12, on small
// matrices with entries in {0, ±½, ±1} and off-diagonals of 0 or 1e-17 mixed
// in: exactly repeated diagonals, exact splits and near-splits, where a sweep
// of the QL iteration can end on an exactly zero rotation value. (The loop once
// took that value for a split and left the sweep unfinished: d = (½, ½, 1),
// e = (−½, ½) came back as −0.128, 0.674, 1.454 instead of −0.123, 0.723,
// 1.401.)
func TestTridiagonalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		d, e := make([]float64, n), make([]float64, n-1)
		if trial == 0 {
			n, d, e = 3, []float64{0.5, 0.5, 1}, []float64{-0.5, 0.5}
		}
		for i := range d {
			if trial > 0 {
				d[i] = float64(rng.Intn(5)-2) / 2
			}
		}
		for i := range e {
			if trial > 0 {
				switch rng.Intn(4) {
				case 0:
				case 1:
					e[i] = 1e-17 * float64(1+rng.Intn(4))
				default:
					e[i] = float64(rng.Intn(5)-2) / 2
				}
			}
		}
		dense := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			dense.Set(i, i, d[i])
			if i > 0 {
				dense.Set(i, i-1, e[i-1])
				dense.Set(i-1, i, e[i-1])
			}
		}
		want, _ := jacobiEig(dense, 100)
		full, _ := EigSymTridiag(d, e)
		dr, er, z := append([]float64(nil), d...), make([]float64, n), make([]float64, n)
		copy(er, e)
		if err := EigSymTridiagFirstRow(dr, er, z); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]float64{"first row": dr, "full": full} {
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12 {
					t.Fatalf("d=%v e=%v: %s gives %v, Jacobi %v", d, e, name, got, want)
				}
			}
		}
	}
}

// TestFirstRowNonConvergenceIsAnError: a NaN-poisoned matrix exhausts the QL
// sweeps and comes back as an error, never a panic or a silent value.
func TestFirstRowNonConvergenceIsAnError(t *testing.T) {
	d := []float64{1, math.NaN(), 3, 4}
	e := []float64{0.5, 0.5, 0.5, 0}
	if err := EigSymTridiagFirstRow(d, e, make([]float64, 4)); err == nil {
		t.Fatal("NaN diagonal converged")
	}
}

func TestEigSymTridiag(t *testing.T) {
	// Tridiagonal with d=2, e=-1 (discrete Laplacian) has analytic spectrum
	// λ_k = 2 - 2cos(kπ/(n+1)).
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	vals, vecs := EigSymTridiag(d, e)
	for k := 1; k <= n; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
		if math.Abs(vals[k-1]-want) > 1e-11 {
			t.Fatalf("Laplacian eigenvalue %d: got %v want %v", k, vals[k-1], want)
		}
	}
	// Build dense version and verify the eigenvectors.
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i+1 < n {
			a.Set(i, i+1, -1)
			a.Set(i+1, i, -1)
		}
	}
	checkEigenpairs(t, a, vals, vecs, 1e-10)
	// The first-row path's eigenvalues must agree.
	dr, er := append([]float64(nil), d...), make([]float64, n)
	copy(er, e)
	if err := EigSymTridiagFirstRow(dr, er, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Abs(dr[i]-vals[i]) > 1e-11 {
			t.Fatalf("EigSymTridiagFirstRow eigenvalue mismatch at %d", i)
		}
	}
}

func TestEigSymTridiagInputsPreserved(t *testing.T) {
	d := []float64{1, 2, 3}
	e := []float64{0.5, 0.25}
	d0 := append([]float64(nil), d...)
	e0 := append([]float64(nil), e...)
	EigSymTridiag(d, e)
	for i := range d {
		if d[i] != d0[i] {
			t.Fatal("EigSymTridiag modified d")
		}
	}
	for i := range e {
		if e[i] != e0[i] {
			t.Fatal("EigSymTridiag modified e")
		}
	}
}

// cholesky is CholeskyInto on a fresh factor with any positive pivot accepted.
func cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Cols)
	if err := CholeskyInto(l, a, 0); err != nil {
		return nil, err
	}
	return l, nil
}

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Build an SPD matrix A = MᵀM + n·I.
	n := 8
	m := randomMatrix(rng, n, n)
	a := MatMul(true, false, m, m)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := MatMul(false, true, l, l)
	if d := llt.MaxAbsDiff(a); d > 1e-10 {
		t.Fatalf("L·Lᵀ differs from A by %g", d)
	}
	// The inverse of the factor, and A⁻¹ = L⁻ᵀ·L⁻¹ solving A·x = b.
	linv := NewMatrix(n, n)
	InvertLowerInto(linv, l)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l.At(i, j) != 0 || linv.At(i, j) != 0 {
				t.Fatalf("factor or inverse not lower triangular at (%d,%d)", i, j)
			}
		}
	}
	if d := MatMul(false, false, linv, l).MaxAbsDiff(Identity(n)); d > 1e-13 {
		t.Fatalf("L⁻¹·L differs from I by %g", d)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y, x, ax := make([]float64, n), make([]float64, n), make([]float64, n)
	Gemv(false, 1, linv, b, 0, y)
	Gemv(true, 1, linv, y, 0, x)
	Gemv(false, 1, a, x, 0, ax)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-9 {
			t.Fatalf("Cholesky solve residual %g at %d", ax[i]-b[i], i)
		}
	}
	// In place, on a matrix whose upper triangle holds garbage: the factor
	// reads the lower triangle only and is the one-shot's, bit for bit.
	inPlace := a.Clone()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			inPlace.Set(i, j, math.NaN())
		}
	}
	if err := CholeskyInto(inPlace, inPlace, 0); err != nil {
		t.Fatal(err)
	}
	if !bitEqual(inPlace.Data, l.Data) {
		t.Fatal("in-place CholeskyInto differs from Cholesky")
	}
}

// TestCholeskyRejectsIndefinite: an indefinite, a singular, a NaN-poisoned
// matrix, and one whose smallest pivot falls below the caller's floor, are
// errors wrapping ErrNotPositiveDefinite that name the pivot — never a NaN
// factor.
func TestCholeskyRejectsIndefinite(t *testing.T) {
	for _, tc := range []struct {
		name     string
		a        []float64
		minPivot float64
		pivot    string
	}{
		{"indefinite", []float64{1, 2, 2, 1}, 0, "pivot 1 is -3"}, // eigenvalues 3, −1
		{"singular", []float64{1, 1, 1, 1}, 0, "pivot 1 is 0"},
		{"NaN", []float64{1, math.NaN(), math.NaN(), 1}, 0, "pivot 1 is NaN"},
		{"near-singular", []float64{1, 1 - 1e-12, 1 - 1e-12, 1}, 1e-10, "pivot 1 is"},
	} {
		a := NewMatrixFrom(2, 2, tc.a)
		err := CholeskyInto(NewMatrix(2, 2), a, tc.minPivot)
		if !errors.Is(err, ErrNotPositiveDefinite) || !strings.Contains(err.Error(), tc.pivot) {
			t.Errorf("%s: %v, want ErrNotPositiveDefinite naming %q", tc.name, err, tc.pivot)
		}
		if tc.minPivot == 0 {
			if _, err := cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
				t.Errorf("%s: Cholesky returned %v", tc.name, err)
			}
		}
	}
	// The near-singular matrix itself is positive definite.
	if _, err := cholesky(NewMatrixFrom(2, 2, []float64{1, 1 - 1e-12, 1 - 1e-12, 1})); err != nil {
		t.Errorf("near-singular matrix rejected without a floor: %v", err)
	}
}

// TestEigSymOracle holds the eigensolver to what an eigendecomposition is,
// independent of any earlier output: ‖A·V − V·Λ‖ ≤ 1e-12·‖A‖ and
// ‖VᵀV − I‖ ≤ 1e-13 (max norms), ascending eigenvalues, on every order from
// 1 to 64 — random spectra, tightly clustered ones (gaps of 1e-10), exactly
// degenerate ones (each value four times), and random tridiagonal input.
func TestEigSymOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	conjugated := func(n int, lam func(i int) float64) *Matrix {
		_, q := EigSym(randomSymmetric(rng, n))
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, lam(i))
		}
		a := MatMul(false, true, MatMul(false, false, q, d), q)
		a.Symmetrize()
		return a
	}
	for n := 1; n <= 64; n++ {
		tri := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			tri.Set(i, i, rng.NormFloat64())
			if i > 0 {
				v := rng.NormFloat64()
				tri.Set(i, i-1, v)
				tri.Set(i-1, i, v)
			}
		}
		for name, a := range map[string]*Matrix{
			"random":      randomSymmetric(rng, n),
			"clustered":   conjugated(n, func(i int) float64 { return 1 + float64(i%3) + 1e-10*float64(i) }),
			"degenerate":  conjugated(n, func(i int) float64 { return float64(i / 4) }),
			"tridiagonal": tri,
		} {
			vals, vecs := make([]float64, n), NewMatrix(n, n)
			if err := NewEigSymWork(n).Solve(a, vals, vecs); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			var norm float64
			for _, v := range a.Data {
				norm = math.Max(norm, math.Abs(v))
			}
			av := MatMul(false, false, a, vecs)
			var resid float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					resid = math.Max(resid, math.Abs(av.At(i, j)-vecs.At(i, j)*vals[j]))
				}
			}
			if resid > 1e-12*norm {
				t.Errorf("n=%d %s: ‖AV − VΛ‖ = %g, ‖A‖ = %g", n, name, resid, norm)
			}
			if d := MatMul(true, false, vecs, vecs).MaxAbsDiff(Identity(n)); d > 1e-13 {
				t.Errorf("n=%d %s: ‖VᵀV − I‖ = %g", n, name, d)
			}
			for j := 1; j < n; j++ {
				if vals[j] < vals[j-1] {
					t.Fatalf("n=%d %s: eigenvalues not ascending at %d", n, name, j)
				}
			}
		}
	}
}

// TestEigSymWorkScaledExtremes: a matrix scaled by 1e200 (where a rotation's
// sum of squares overflows) or by 1e-200 (where it underflows to zero) takes
// the Givens norm's Hypot fallback and returns the scaled eigenvalues and the
// same eigenvectors: the guard keeps math.Hypot's range.
func TestEigSymWorkScaledExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{2, 6, 25} {
		a := randomSymmetric(rng, n)
		w := NewEigSymWork(n)
		vals, vecs := make([]float64, n), NewMatrix(n, n)
		if err := w.Solve(a, vals, vecs); err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1e200, 1e-200} {
			as := a.Clone()
			as.Scale(scale)
			got, gotVecs := make([]float64, n), NewMatrix(n, n)
			if err := w.Solve(as, got, gotVecs); err != nil {
				t.Fatalf("n=%d scale %g: %v", n, scale, err)
			}
			for j := range vals {
				if d := math.Abs(got[j]/scale - vals[j]); !(d <= 1e-12*math.Max(1, math.Abs(vals[j]))) {
					t.Errorf("n=%d scale %g: eigenvalue %d = %g, want %g·scale", n, scale, j, got[j], vals[j])
				}
				var dot float64
				for i := 0; i < n; i++ {
					dot += gotVecs.At(i, j) * vecs.At(i, j)
				}
				if !(math.Abs(math.Abs(dot)-1) <= 1e-12) {
					t.Errorf("n=%d scale %g: eigenvector %d moved (|overlap| %g)", n, scale, j, math.Abs(dot))
				}
			}
		}
	}
	if g := givensNorm(3e300, 4e300); g != 5e300 {
		t.Errorf("givensNorm(3e300, 4e300) = %g, want 5e300", g)
	}
	if g := givensNorm(3e-300, 4e-300); math.Abs(g-5e-300) > 1e-315 {
		t.Errorf("givensNorm(3e-300, 4e-300) = %g, want 5e-300", g)
	}
	if g := givensNorm(math.NaN(), 1); !math.IsNaN(g) {
		t.Errorf("givensNorm(NaN, 1) = %g", g)
	}
	if g := givensNorm(math.Inf(-1), math.NaN()); !math.IsInf(g, 1) {
		t.Errorf("givensNorm(−Inf, NaN) = %g, want +Inf as math.Hypot", g)
	}
}

func TestSolveLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 9
	a := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 5) // ensure well-conditioned
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	Gemv(false, 1, a, xTrue, 0, b)
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-9 {
			t.Fatalf("SolveLinear x[%d] = %v want %v", i, x[i], xTrue[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := SolveLinear(a, []float64{1, 1}); err == nil {
		t.Fatal("SolveLinear accepted a singular matrix")
	}
}

// TestSolveLinearColumnsMatchesOneColumnAtATime: solving k right-hand sides
// as the columns of one matrix gives each column SolveLinearInPlace's answer
// bit for bit, pivoting included; a singular matrix is an error.
func TestSolveLinearColumnsMatchesOneColumnAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, k := 11, 5
	a := randomMatrix(rng, n, n) // unshifted: row exchanges happen
	rhs := randomMatrix(rng, n, k)
	x := rhs.Clone()
	if err := SolveLinearColumnsInPlace(a.Clone(), x); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < k; c++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = rhs.At(i, c)
		}
		if err := SolveLinearInPlace(a.Clone(), col); err != nil {
			t.Fatal(err)
		}
		for i, v := range col {
			if math.Float64bits(v) != math.Float64bits(x.At(i, c)) {
				t.Fatalf("column %d row %d: %v, one at a time %v", c, i, x.At(i, c), v)
			}
		}
	}
	if err := SolveLinearColumnsInPlace(NewMatrixFrom(2, 2, []float64{1, 2, 2, 4}), NewMatrix(2, 3)); err == nil {
		t.Fatal("SolveLinearColumnsInPlace accepted a singular matrix")
	}
}

// Property: eigenvalues of A+cI are eigenvalues of A shifted by c.
func TestEigShiftProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomSymmetric(r, n)
		c := r.NormFloat64()
		v1, _ := EigSym(a)
		shifted := a.Clone()
		for i := 0; i < n; i++ {
			shifted.Add(i, i, c)
		}
		v2, _ := EigSym(shifted)
		for i := range v1 {
			if math.Abs(v2[i]-(v1[i]+c)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: det sign via Cholesky — MᵀM+I is always SPD.
func TestCholeskySPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		m := randomMatrix(r, n, n)
		a := MatMul(true, false, m, m)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		_, err := cholesky(a)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// jacobiEig computes eigenvalues and eigenvectors of a symmetric matrix by
// the cyclic Jacobi method: the eigensolver's independent oracle. Eigenvalues are
// returned ascending with matching eigenvector columns.
func jacobiEig(a *Matrix, maxSweeps int) ([]float64, *Matrix) {
	if a.Rows != a.Cols {
		panic("jacobiEig on non-square matrix")
	}
	n := a.Rows
	m := a.Clone()
	v := Identity(n)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-30 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	d := make([]float64, n)
	for i := range d {
		d[i] = m.At(i, i)
	}
	// sort ascending with vectors
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		k := idx[i]
		key := d[k]
		j := i - 1
		for j >= 0 && d[idx[j]] > key {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = k
	}
	ds := make([]float64, n)
	vs := NewMatrix(n, n)
	for c2, src := range idx {
		ds[c2] = d[src]
		for r := 0; r < n; r++ {
			vs.Set(r, c2, v.At(r, src))
		}
	}
	return ds, vs
}
