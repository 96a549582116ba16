package lanczos

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/par"
)

// blockSparse builds a symmetric operator of 3×3 atom-pair blocks — the
// shape of the assembled Hessian: every atom couples to itself and to a few
// neighbours. Atom 0 couples only to itself, so a start vector supported on
// it spans a 3-dimensional invariant subspace.
func blockSparse(t testing.TB, atoms int, seed int64) *hessian.Sparse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hessian.NewBuilder(3 * atoms)
	block := func(a, c int) {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				v := rng.NormFloat64()
				if a == c {
					if j < i {
						continue
					}
					if i == j {
						v += 4
					}
				}
				b.Add(3*a+i, 3*c+j, v)
				if 3*a+i != 3*c+j {
					b.Add(3*c+j, 3*a+i, v)
				}
			}
		}
	}
	for a := 0; a < atoms; a++ {
		block(a, a)
		for _, off := range []int{1, 2, 7} {
			if a > 0 && a+off < atoms {
				block(a, a+off)
			}
		}
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refRun is the recurrence as it stood before the plan — par.Dot, a cloned
// q per step, an appended history, linalg.Axpy sweeps — kept as the
// differential reference of the lockstep solve (the gemmref/cgref pattern).
func refRun(op Operator, d []float64, opt Options) (alphas, betas []float64, norm float64) {
	n := op.Dim()
	norm = math.Sqrt(par.SumSq(d))
	q := make([]float64, n)
	for i := range q {
		q[i] = d[i] / norm
	}
	var qs [][]float64
	if opt.Reorthogonalize {
		qs = append(qs, append([]float64(nil), q...))
	}
	qPrev := make([]float64, n)
	w := make([]float64, n)
	var betaPrev float64
	for step := 0; step < opt.K; step++ {
		op.MulVec(q, w)
		alpha := par.Dot(q, w)
		alphas = append(alphas, alpha)
		for i := range w {
			w[i] -= alpha*q[i] + betaPrev*qPrev[i]
		}
		if opt.Reorthogonalize {
			for pass := 0; pass < 2; pass++ {
				for _, qi := range qs {
					c := par.Dot(w, qi)
					if c != 0 {
						linalg.Axpy(-c, qi, w)
					}
				}
			}
		}
		beta := math.Sqrt(par.SumSq(w))
		betas = append(betas, beta)
		if beta < 1e-13*math.Max(1, math.Abs(alpha)) {
			break
		}
		qPrev, q = q, qPrev
		for i := range q {
			q[i] = w[i] / beta
		}
		if opt.Reorthogonalize {
			qs = append(qs, append([]float64(nil), q...))
		}
		betaPrev = beta
	}
	return alphas, betas, norm
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRunMatchesReferenceBitwise: Run — the one-column case of the lockstep
// solve, with its fused Gram–Schmidt sweep and plan-owned history — returns
// the reference recurrence's α, β and ‖d‖ bit for bit: dense and sparse
// operators, with and without reorthogonalization, single- and multi-chunk
// vectors, and a start vector in an invariant subspace.
func TestRunMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	small := blockSparse(t, 81, 1)
	large := blockSparse(t, 1700, 2) // n = 5100: three dot chunks, two vec chunks
	trapped := make([]float64, small.Dim())
	trapped[0], trapped[1], trapped[2] = 1, -2, 0.5
	cases := []struct {
		name string
		op   Operator
		d    []float64
		opt  Options
	}{
		{"dense", DenseOperator{randomSymmetric(rng, 40)}, randomVector(rng, 40), Options{K: 12, Reorthogonalize: true}},
		{"dense-plain", DenseOperator{randomSymmetric(rng, 40)}, randomVector(rng, 40), Options{K: 12}},
		{"sparse", small, randomVector(rng, small.Dim()), Options{K: 120, Reorthogonalize: true}},
		{"sparse-plain", small, randomVector(rng, small.Dim()), Options{K: 30}},
		{"sparse-large", large, randomVector(rng, large.Dim()), Options{K: 10, Reorthogonalize: true}},
		{"invariant-subspace", small, trapped, Options{K: 20, Reorthogonalize: true}},
	}
	for _, c := range cases {
		wantA, wantB, wantNorm := refRun(c.op, c.d, c.opt)
		tri, norm, err := Run(c.op, c.d, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sameBits(tri.Alpha, wantA) || !sameBits(tri.Beta, wantB) || norm != wantNorm {
			t.Errorf("%s: recurrence differs from the reference (%d steps, reference %d)", c.name, tri.K(), len(wantA))
		}
		if early := len(wantA) < c.opt.K; tri.Breakdown != early {
			t.Errorf("%s: Breakdown = %v after %d of %d steps", c.name, tri.Breakdown, tri.K(), c.opt.K)
		}
	}
}

// sevenStarts are seven start vectors for op: five generic ones, one trapped
// in atom 0's invariant subspace (column 2: terminates after ≤ 3 steps), a
// missing one (column 4) and an exactly zero one (column 5).
func sevenStarts(rng *rand.Rand, n int) [][]float64 {
	starts := make([][]float64, 7)
	for c := range starts {
		starts[c] = randomVector(rng, n)
	}
	starts[2] = make([]float64, n)
	starts[2][0], starts[2][1], starts[2][2] = 3, 1, -2
	starts[4] = nil
	starts[5] = make([]float64, n)
	return starts
}

// TestLockstepMatchesSingleColumns: seven recurrences advanced together —
// one multi-vector product per step — carry the bits of seven Run calls,
// including a column that leaves the active set early and two that never
// enter it; densities likewise.
func TestLockstepMatchesSingleColumns(t *testing.T) {
	op := blockSparse(t, 81, 3)
	starts := sevenStarts(rand.New(rand.NewSource(4)), op.Dim())
	opt := Options{K: 60, Reorthogonalize: true}
	p, err := NewPlan(op, 7, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(starts); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = -2 + 0.06*float64(i)
	}
	if err := p.Densities(xs, 0.3, nil, true); err != nil {
		t.Fatal(err)
	}
	for c, d := range starts {
		tri, norm := p.Tridiagonal(c)
		if c == 4 || c == 5 {
			if tri != nil || p.Density(c) != nil {
				t.Errorf("column %d: a skipped start produced a recurrence", c)
			}
			continue
		}
		want, wantNorm, err := Run(op, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(tri.Alpha, want.Alpha) || !sameBits(tri.Beta, want.Beta) || norm != wantNorm || tri.Breakdown != want.Breakdown {
			t.Errorf("column %d: lockstep recurrence differs from Run (%d steps vs %d)", c, tri.K(), want.K())
		}
		wantDens, err := SpectralDensity(want, wantNorm, xs, 0.3, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(p.Density(c), wantDens) {
			t.Errorf("column %d: lockstep density differs from SpectralDensity", c)
		}
	}
	if tri, _ := p.Tridiagonal(2); tri.K() > 3 || !tri.Breakdown {
		t.Errorf("trapped column took %d steps, Breakdown = %v", tri.K(), tri.Breakdown)
	}
	want := Stats{Steps: 4*opt.K + p.cols[2].step, EarlyStops: 1, SkippedStarts: 2}
	if got := p.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if _, _, err := Run(op, starts[5], opt); err == nil {
		t.Error("Run accepted a zero start vector")
	}
}

// TestSolveWidthInvariance: at n = 10⁴ every reduction and vector kernel of
// the solve splits into several par chunks; the coefficients and densities
// must not depend on how many workers drain them.
func TestSolveWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	op := blockSparse(t, 3334, 5)
	starts := sevenStarts(rand.New(rand.NewSource(6)), op.Dim())[:4]
	xs := []float64{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	type result struct{ alpha, beta, dens [][]float64 }
	solve := func(width int) result {
		par.SetBudget(width)
		p, err := NewPlan(op, len(starts), Options{K: 8, Reorthogonalize: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Solve(starts); err != nil {
			t.Fatal(err)
		}
		if err := p.Densities(xs, 0.5, nil, true); err != nil {
			t.Fatal(err)
		}
		var r result
		for c := range starts {
			tri, _ := p.Tridiagonal(c)
			r.alpha = append(r.alpha, tri.Alpha)
			r.beta = append(r.beta, tri.Beta)
			r.dens = append(r.dens, p.Density(c))
		}
		return r
	}
	ref := solve(1)
	for _, width := range []int{2, 4} {
		got := solve(width)
		for c := range starts {
			if !sameBits(got.alpha[c], ref.alpha[c]) || !sameBits(got.beta[c], ref.beta[c]) || !sameBits(got.dens[c], ref.dens[c]) {
				t.Errorf("width %d, column %d: solve differs from width 1", width, c)
			}
		}
	}
}

// TestPlanAllocationCeiling: the plan owns the Lanczos vectors, the
// coefficients, the T̂ work vectors, the density buffers and every bound
// kernel, so a second solve on it allocates nothing — with single-chunk
// vectors (n = 243) and with chunked reductions (n = 10⁴).
func TestPlanAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = 0.05 * float64(i)
	}
	for _, atoms := range []int{81, 3334} {
		op := blockSparse(t, atoms, 7)
		starts := sevenStarts(rand.New(rand.NewSource(8)), op.Dim())
		p, err := NewPlan(op, 7, Options{K: 12, Reorthogonalize: true})
		if err != nil {
			t.Fatal(err)
		}
		solve := func() {
			if err := p.Solve(starts); err != nil {
				t.Fatal(err)
			}
			if err := p.Densities(xs, 0.4, math.Sqrt, true); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
			t.Errorf("n = %d: a repeated solve allocates %v objects, want 0", op.Dim(), allocs)
		}
	}
}

// TestQuadratureFailureIsTyped: a non-finite recurrence exhausts the QL
// sweeps; every way to a rule reports it as ErrQuadrature instead of
// panicking.
func TestQuadratureFailureIsTyped(t *testing.T) {
	bad := &Tridiagonal{Alpha: []float64{1, math.NaN(), 2, 3}, Beta: []float64{0.5, 0.5, 0.5, 0.5}}
	if _, _, err := bad.GaussRule(); !errors.Is(err, ErrQuadrature) {
		t.Errorf("GaussRule: %v", err)
	}
	if _, _, err := bad.GAGQRule(); !errors.Is(err, ErrQuadrature) {
		t.Errorf("GAGQRule: %v", err)
	}
	if _, err := SpectralDensity(bad, 1, []float64{0, 1}, 0.1, nil, true); !errors.Is(err, ErrQuadrature) {
		t.Errorf("SpectralDensity: %v", err)
	}
	if _, _, err := (&Tridiagonal{}).GaussRule(); !errors.Is(err, ErrQuadrature) {
		t.Errorf("empty recurrence: %v", err)
	}

	m := linalg.Identity(6)
	m.Set(2, 2, math.NaN())
	p, err := NewPlan(DenseOperator{m}, 2, Options{K: 5, Reorthogonalize: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{{1, 1, 1, 1, 1, 1}, {1, 0, 0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Densities([]float64{0, 1}, 0.1, nil, true); !errors.Is(err, ErrQuadrature) {
		t.Errorf("Plan.Densities: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	op := DenseOperator{linalg.Identity(4)}
	if _, err := NewPlan(op, 0, DefaultOptions()); err == nil {
		t.Error("accepted a plan without columns")
	}
	p, err := NewPlan(op, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(make([][]float64, 2)); err == nil {
		t.Error("accepted more start vectors than columns")
	}
}
