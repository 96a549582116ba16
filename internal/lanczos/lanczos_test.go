package lanczos

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

func randomSymmetric(rng *rand.Rand, n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	m.Symmetrize()
	return m
}

func randomVector(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return d
}

// denseOperator adapts a symmetric dense matrix to the Operator interface.
type denseOperator struct{ m *linalg.Matrix }

func (d denseOperator) Dim() int { return d.m.Rows }

func (d denseOperator) MulVec(x, y []float64) { linalg.Gemv(false, 1, d.m, x, 0, y) }

// denseSpectralDensity is the exact reference: it diagonalizes the operator
// as a dense matrix and evaluates dᵀ·g_σ(x−H)·d directly.
func denseSpectralDensity(m *linalg.Matrix, d []float64, xs []float64, sigma float64, transform func(float64) float64) []float64 {
	vals, vecs := linalg.EigSym(m)
	n := m.Rows
	out := make([]float64, len(xs))
	pref := 1 / (math.Sqrt(2*math.Pi) * sigma)
	for j := 0; j < n; j++ {
		var proj float64
		for i := 0; i < n; i++ {
			proj += vecs.At(i, j) * d[i]
		}
		w := proj * proj
		x0 := vals[j]
		if transform != nil {
			x0 = transform(x0)
		}
		for xi, x := range xs {
			dx := (x - x0) / sigma
			if dx > 8 || dx < -8 {
				continue
			}
			out[xi] += w * pref * math.Exp(-0.5*dx*dx)
		}
	}
	return out
}

// tridiagonal returns column c's recurrence coefficients and ‖d‖ from the
// last Solve, or nil for a skipped column: views into the plan, valid until
// its next Solve.
func (p *Plan) tridiagonal(c int) (*Tridiagonal, float64) {
	col := &p.cols[c]
	if !col.solved {
		return nil, 0
	}
	return &col.tri, col.norm
}

// run is a one-column solve on a fresh plan: the recurrence from d and ‖d‖.
func run(t testing.TB, op Operator, d []float64, k int) (*Tridiagonal, float64) {
	t.Helper()
	p, err := NewPlan(op, 1, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{d}); err != nil {
		t.Fatal(err)
	}
	tri, norm := p.tridiagonal(0)
	if tri == nil {
		t.Fatal("zero start vector")
	}
	return tri, norm
}

// ruleFor builds tri's quadrature rule: the averaged one when gagq is set,
// the plain Gauss rule otherwise.
func ruleFor(tri *Tridiagonal, gagq bool) (*rule, error) {
	r := newRule(max(tri.K(), 1))
	if err := r.build(tri, gagq); err != nil {
		return nil, err
	}
	return r, nil
}

// planDensity is one column's density through Plan.Densities, copied out of
// the plan.
func planDensity(t testing.TB, op Operator, d []float64, k int, xs []float64, sigma float64, transform func(float64) float64, gagq bool) []float64 {
	t.Helper()
	p, err := NewPlan(op, 1, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{d}); err != nil {
		t.Fatal(err)
	}
	if err := p.Densities(xs, sigma, transform, gagq); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), p.Density(0)...)
}

// density evaluates tri's rule as a spectral density on xs, the way
// Plan.Densities does for one column (refRun's coefficients have no plan).
func density(tri *Tridiagonal, norm float64, xs []float64, sigma float64, transform func(float64) float64, gagq bool) ([]float64, error) {
	r, err := ruleFor(tri, gagq)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	r.density(norm, xs, sigma, transform, out)
	return out, nil
}

func TestFullLanczosRecoversSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	m := randomSymmetric(rng, n)
	d := randomVector(rng, n)
	tri, _ := run(t, denseOperator{m}, d, n)
	if tri.K() != n {
		t.Fatalf("expected %d steps, got %d", n, tri.K())
	}
	r, err := ruleFor(tri, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes, weights := r.nodes, r.weights
	want, _ := linalg.EigSym(m)
	for i := range want {
		if math.Abs(nodes[i]-want[i]) > 1e-8 {
			t.Fatalf("Ritz value %d = %v, want %v", i, nodes[i], want[i])
		}
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("Gauss weights sum to %v", sum)
	}
}

// momentsExact computes dᵀ·Hᵐ·d directly.
func momentsExact(m *linalg.Matrix, d []float64, maxM int) []float64 {
	n := m.Rows
	out := make([]float64, maxM+1)
	v := append([]float64(nil), d...)
	w := make([]float64, n)
	for p := 0; p <= maxM; p++ {
		out[p] = linalg.Dot(d, v)
		linalg.Gemv(false, 1, m, v, 0, w)
		v, w = w, v
	}
	return out
}

func TestGaussRuleMomentExactness(t *testing.T) {
	// A k-step Gauss rule integrates polynomials up to degree 2k−1 exactly.
	rng := rand.New(rand.NewSource(2))
	n := 30
	k := 6
	m := randomSymmetric(rng, n)
	d := randomVector(rng, n)
	tri, norm := run(t, denseOperator{m}, d, k)
	r, err := ruleFor(tri, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes, weights := r.nodes, r.weights
	exact := momentsExact(m, d, 2*k-1)
	for p := 0; p <= 2*k-1; p++ {
		var quad float64
		for j := range nodes {
			quad += weights[j] * math.Pow(nodes[j], float64(p))
		}
		quad *= norm * norm
		if math.Abs(quad-exact[p]) > 1e-7*math.Max(1, math.Abs(exact[p])) {
			t.Fatalf("moment %d: quadrature %v vs exact %v", p, quad, exact[p])
		}
	}
}

func TestGAGQMomentExactness(t *testing.T) {
	// The generalized averaged rule from k steps is exact at least up to
	// degree 2k−1 as well (and typically further).
	rng := rand.New(rand.NewSource(3))
	n := 30
	k := 6
	m := randomSymmetric(rng, n)
	d := randomVector(rng, n)
	tri, norm := run(t, denseOperator{m}, d, k)
	r, err := ruleFor(tri, true)
	if err != nil {
		t.Fatal(err)
	}
	nodes, weights := r.nodes, r.weights
	if len(nodes) != 2*k-1 {
		t.Fatalf("GAGQ rule has %d nodes, want %d", len(nodes), 2*k-1)
	}
	exact := momentsExact(m, d, 2*k-1)
	for p := 0; p <= 2*k-1; p++ {
		var quad float64
		for j := range nodes {
			quad += weights[j] * math.Pow(nodes[j], float64(p))
		}
		quad *= norm * norm
		if math.Abs(quad-exact[p]) > 1e-7*math.Max(1, math.Abs(exact[p])) {
			t.Fatalf("moment %d: GAGQ %v vs exact %v", p, quad, exact[p])
		}
	}
}

func TestSpectralDensityMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 80
	m := randomSymmetric(rng, n)
	d := randomVector(rng, n)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = -12 + 24*float64(i)/100
	}
	sigma := 0.6
	want := denseSpectralDensity(m, d, xs, sigma, nil)
	got := planDensity(t, denseOperator{m}, d, 50, xs, sigma, nil, true)
	// Relative L2 error.
	var num, den float64
	for i := range xs {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if rel := math.Sqrt(num / den); rel > 2e-2 {
		t.Fatalf("Lanczos spectral density relative L2 error %v", rel)
	}
}

func TestGAGQBeatsPlainGauss(t *testing.T) {
	// At equal k the averaged rule should approximate the smoothed density
	// at least as well as the plain rule (aggregate over several seeds).
	xs := make([]float64, 81)
	for i := range xs {
		xs[i] = -10 + 20*float64(i)/80
	}
	sigma := 0.8
	var errG, errA float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(10 + seed))
		n := 60
		m := randomSymmetric(rng, n)
		d := randomVector(rng, n)
		want := denseSpectralDensity(m, d, xs, sigma, nil)
		plain := planDensity(t, denseOperator{m}, d, 12, xs, sigma, nil, false)
		avg := planDensity(t, denseOperator{m}, d, 12, xs, sigma, nil, true)
		for i := range xs {
			errG += (plain[i] - want[i]) * (plain[i] - want[i])
			errA += (avg[i] - want[i]) * (avg[i] - want[i])
		}
	}
	if errA > errG {
		t.Fatalf("GAGQ error %v exceeds plain Gauss error %v", errA, errG)
	}
}

func TestEarlyTermination(t *testing.T) {
	// Start vector inside a 3-dimensional invariant subspace: the
	// recurrence must stop after ≤3 steps.
	n := 12
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, float64(i%3)) // eigenvalues 0,1,2 each 4×
	}
	d := make([]float64, n)
	d[0], d[1], d[2] = 1, 2, 3
	tri, _ := run(t, denseOperator{m}, d, 10)
	if tri.K() > 3 {
		t.Fatalf("expected ≤3 steps for a 3-dim invariant subspace, got %d", tri.K())
	}
}

func TestTransformApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 15
	m := randomSymmetric(rng, n)
	// Shift to be positive definite so sqrt transform is smooth.
	for i := 0; i < n; i++ {
		m.Add(i, i, 10)
	}
	d := randomVector(rng, n)
	xs := []float64{2.5, 3.0, 3.5, 4.0}
	sqrtT := func(x float64) float64 { return math.Sqrt(math.Abs(x)) }
	got := planDensity(t, denseOperator{m}, d, n, xs, 0.2, sqrtT, true)
	want := denseSpectralDensity(m, d, xs, 0.2, sqrtT)
	for i := range xs {
		if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, want[i]) {
			t.Fatalf("transformed density at %v: %v vs %v", xs[i], got[i], want[i])
		}
	}
}

// TestRunValidation: a one-column run rejects K = 0 and a start vector of
// the wrong length, and a zero start vector leaves its column without a
// recurrence.
func TestRunValidation(t *testing.T) {
	op := denseOperator{linalg.Identity(4)}
	if _, err := NewPlan(op, 1, Options{K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	p, err := NewPlan(op, 1, Options{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{{1, 2}}); err == nil {
		t.Fatal("accepted wrong-length start vector")
	}
	if err := p.Solve([][]float64{make([]float64, 4)}); err != nil {
		t.Fatal(err)
	}
	if tri, _ := p.tridiagonal(0); tri != nil {
		t.Fatal("accepted zero start vector")
	}
}

// TestNoReorthogonalizationStillWorksForSmallK: at K = 8 the ω-recurrence
// never asks for a sweep, and the plain recurrence's Gauss rule is exact.
func TestNoReorthogonalizationStillWorksForSmallK(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 40
	m := randomSymmetric(rng, n)
	d := randomVector(rng, n)
	p, err := NewPlan(denseOperator{m}, 1, Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{d}); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Reorthogonalized != 0 {
		t.Fatalf("%d of %d steps swept", st.Reorthogonalized, st.Steps)
	}
	tri, norm := p.tridiagonal(0)
	r, err := ruleFor(tri, false)
	if err != nil {
		t.Fatal(err)
	}
	nodes, weights := r.nodes, r.weights
	exact := momentsExact(m, d, 3)
	for p := 0; p <= 3; p++ {
		var quad float64
		for j := range nodes {
			quad += weights[j] * math.Pow(nodes[j], float64(p))
		}
		quad *= norm * norm
		if math.Abs(quad-exact[p]) > 1e-6*math.Max(1, math.Abs(exact[p])) {
			t.Fatalf("moment %d without reorthogonalization: %v vs %v", p, quad, exact[p])
		}
	}
}

func TestGAGQAfterEarlyTermination(t *testing.T) {
	// K larger than the invariant subspace: the coupling β_k is ~0 and the
	// GAGQ rule must gracefully fall back to the plain Gauss rule instead
	// of augmenting through a meaningless coefficient.
	n := 12
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1e-5*float64(i%3)) // Hessian-like tiny eigenvalue scale
	}
	d := make([]float64, n)
	d[0], d[1], d[2] = 1, 2, 3
	tri, norm := run(t, denseOperator{m}, d, 10)
	r, err := ruleFor(tri, true)
	if err != nil {
		t.Fatal(err)
	}
	nodes, weights := r.nodes, r.weights
	var sum float64
	for _, w := range weights {
		if math.IsNaN(w) {
			t.Fatal("NaN weight from GAGQ after early termination")
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-8 {
		t.Fatalf("GAGQ weights sum to %v", sum)
	}
	for _, x := range nodes {
		if math.IsNaN(x) {
			t.Fatal("NaN node from GAGQ after early termination")
		}
	}
	_ = norm
}
