package linalg

import (
	"math"
	"math/rand"
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
		Gemv(false, 1, a, v, 0, av, nil)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[j]*v[i]) > tol {
				t.Fatalf("eigenpair %d: residual %g at row %d", j, av[i]-vals[j]*v[i], i)
			}
		}
	}
	// Orthonormality VᵀV = I.
	vtv := MatMul(true, false, vecs, vecs, nil)
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
		if math.Abs(sum-a.Trace()) > 1e-9 {
			t.Fatalf("n=%d: eigenvalue sum %v != trace %v", n, sum, a.Trace())
		}
	}
}

func TestEigSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomSymmetric(rng, 12)
	v1, _ := EigSym(a)
	v2, vecs2 := JacobiEig(a, 60)
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
	// Eigenvalue-only path must agree.
	onlyVals := EigvalsSymTridiag(d, e)
	for i := range vals {
		if math.Abs(onlyVals[i]-vals[i]) > 1e-11 {
			t.Fatalf("EigvalsSymTridiag mismatch at %d", i)
		}
	}
}

func TestEigSymTridiagInputsPreserved(t *testing.T) {
	d := []float64{1, 2, 3}
	e := []float64{0.5, 0.25}
	d0 := append([]float64(nil), d...)
	e0 := append([]float64(nil), e...)
	EigSymTridiag(d, e)
	EigvalsSymTridiag(d, e)
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

func TestCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Build an SPD matrix A = MᵀM + n·I.
	n := 8
	m := randomMatrix(rng, n, n)
	a := MatMul(true, false, m, m, nil)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	llt := MatMul(false, true, l, l, nil)
	if d := llt.MaxAbsDiff(a); d > 1e-10 {
		t.Fatalf("L·Lᵀ differs from A by %g", d)
	}
	// Solve via forward/back substitution and check.
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y := ForwardSolve(l, b)
	x := BackSolveT(l, y)
	ax := make([]float64, n)
	Gemv(false, 1, a, x, 0, ax, nil)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-9 {
			t.Fatalf("Cholesky solve residual %g at %d", ax[i]-b[i], i)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestGeneralizedEigSym(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 10
	h := randomSymmetric(rng, n)
	// SPD overlap: S = I + small random symmetric.
	s := Identity(n)
	p := randomSymmetric(rng, n)
	p.Scale(0.05)
	s.AddMatrix(p, 1)
	eps, c, err := GeneralizedEigSym(h, s)
	if err != nil {
		t.Fatal(err)
	}
	// Check H·C = S·C·diag(eps) and Cᵀ·S·C = I.
	hc := MatMul(false, false, h, c, nil)
	sc := MatMul(false, false, s, c, nil)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(hc.At(i, j)-eps[j]*sc.At(i, j)) > 1e-9 {
				t.Fatalf("generalized eigenpair %d residual %g", j, hc.At(i, j)-eps[j]*sc.At(i, j))
			}
		}
	}
	csc := MatMul(true, false, c, sc, nil)
	if d := csc.MaxAbsDiff(Identity(n)); d > 1e-9 {
		t.Fatalf("CᵀSC deviates from identity by %g", d)
	}
	for j := 1; j < n; j++ {
		if eps[j] < eps[j-1] {
			t.Fatal("generalized eigenvalues not ascending")
		}
	}
}

func TestGeneralizedEigSymReducesToStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 7
	h := randomSymmetric(rng, n)
	eps, _, err := GeneralizedEigSym(h, Identity(n))
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := EigSym(h)
	for i := range vals {
		if math.Abs(eps[i]-vals[i]) > 1e-10 {
			t.Fatalf("S=I generalized eig %v != standard %v", eps[i], vals[i])
		}
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
	Gemv(false, 1, a, xTrue, 0, b, nil)
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
		a := MatMul(true, false, m, m, nil)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		_, err := Cholesky(a)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
