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
	// blocks[{a, c}] is block (a, c) for a ≤ c; block (c, a) is its transpose.
	blocks := make(map[[2]int]*[3][3]float64)
	block := func(a, c int) {
		var blk [3][3]float64
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
					blk[j][i] = v
				}
				blk[i][j] = v
			}
		}
		blocks[[2]int{a, c}] = &blk
	}
	for a := 0; a < atoms; a++ {
		block(a, a)
		for _, off := range []int{1, 2, 7} {
			if a > 0 && a+off < atoms {
				block(a, a+off)
			}
		}
	}
	s := &hessian.Sparse{N: 3 * atoms, RowPtr: make([]int32, 3*atoms+1)}
	for a := 0; a < atoms; a++ {
		for i := 0; i < 3; i++ {
			for _, off := range []int{-7, -2, -1, 0, 1, 2, 7} { // ascending columns
				c := a + off
				for j := 0; j < 3; j++ {
					if blk := blocks[[2]int{a, c}]; blk != nil {
						s.Col, s.Val = append(s.Col, int32(3*c+j)), append(s.Val, blk[i][j])
					} else if blk := blocks[[2]int{c, a}]; blk != nil {
						s.Col, s.Val = append(s.Col, int32(3*c+j)), append(s.Val, blk[j][i])
					}
				}
			}
			s.RowPtr[3*a+i+1] = int32(len(s.Col))
		}
	}
	return s
}

// refResult is what refRun computed: the coefficients, ‖d‖, the number of
// steps that swept, and the Lanczos vectors.
type refResult struct {
	alphas, betas []float64
	norm          float64
	sweeps        int
	qs            [][]float64
}

// refDot is the dot product refRun takes: par.ReduceSum over DotRange chunks.
func refDot(x, y []float64) float64 {
	return par.ReduceSum("dot", len(x), par.DotChunk, func(lo, hi int) float64 {
		return par.DotRange(x, y, lo, hi)
	})
}

// refRun is the recurrence as it stood before the plan — a chunked dot, a cloned
// q per step, an appended history, linalg.Axpy sweeps — kept as the
// differential reference of the lockstep solve (the gemmref/cgref pattern).
// With full set it runs two Gram–Schmidt passes on every step: the
// full-reorthogonalization oracle. Otherwise it sweeps where its own
// ω-recurrence — Simon's, written out over the whole (K+1)×(K+1) triangle
// instead of the plan's two rolling rows — crosses √ε, and on the step
// after.
func refRun(op Operator, d []float64, k int, full bool) refResult {
	n := op.Dim()
	var r refResult
	r.norm = math.Sqrt(refDot(d, d))
	q := make([]float64, n)
	for i := range q {
		q[i] = d[i] / r.norm
	}
	r.qs = append(r.qs, append([]float64(nil), q...))
	omega := make([][]float64, k+1)
	for i := range omega {
		omega[i] = make([]float64, k+1)
	}
	omega[0][0] = 1
	eps1 := eps * math.Sqrt(float64(n))
	qPrev := make([]float64, n)
	w := make([]float64, n)
	var betaPrev, anorm float64
	pair := false
	for step := 0; step < k; step++ {
		op.MulVec(q, w)
		alpha := refDot(q, w)
		r.alphas = append(r.alphas, alpha)
		for i := range w {
			w[i] -= alpha*q[i] + betaPrev*qPrev[i]
		}
		beta := math.Sqrt(refDot(w, w))
		anorm = math.Max(anorm, math.Abs(alpha)+beta+betaPrev)
		sweep := full || pair
		if !sweep {
			theta := eps1 * anorm
			cur, next := omega[step], omega[step+1]
			worst := theta / beta
			next[step], next[step+1] = worst, 1
			for j := 0; j < step; j++ {
				t := r.betas[j]*cur[j+1] + (r.alphas[j]-alpha)*cur[j] - betaPrev*omega[step-1][j]
				if j > 0 {
					t += r.betas[j-1] * cur[j-1]
				}
				next[j] = (t + math.Copysign(theta, t)) / beta
				worst = math.Max(worst, math.Abs(next[j]))
			}
			sweep = worst > sqrtEps
		}
		if sweep {
			pair = !pair
			r.sweeps++
			for pass := 0; pass < 2; pass++ {
				for _, qi := range r.qs {
					c := refDot(w, qi)
					if c != 0 {
						linalg.Axpy(-c, qi, w)
					}
				}
			}
			beta = math.Sqrt(refDot(w, w))
			for j := 0; j <= step; j++ {
				omega[step+1][j] = eps1
			}
			omega[step+1][step+1] = 1
		}
		r.betas = append(r.betas, beta)
		if beta < 1e-13*math.Max(1, math.Abs(alpha)) {
			break
		}
		qPrev, q = q, qPrev
		for i := range q {
			q[i] = w[i] / beta
		}
		if step+1 < k {
			r.qs = append(r.qs, append([]float64(nil), q...))
		}
		betaPrev = beta
	}
	return r
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

// TestRunMatchesReferenceBitwise: a one-column run of the plan — with its
// fused Gram–Schmidt sweep, plan-owned history and rolling ω rows — returns the
// reference recurrence's α, β and ‖d‖ bit for bit, and
// sweeps on the same steps: dense and sparse operators, runs long enough for
// the ω-recurrence to fire and runs too short for it to, single- and
// multi-chunk vectors, and a start vector in an invariant subspace.
func TestRunMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	small := blockSparse(t, 81, 1)
	large := blockSparse(t, 1700, 2) // n = 5100: three dot chunks, two vec chunks
	trapped := make([]float64, small.Dim())
	trapped[0], trapped[1], trapped[2] = 1, -2, 0.5
	cases := []struct {
		name     string
		op       Operator
		d        []float64
		k        int
		triggers bool // the ω-recurrence fires within k steps
	}{
		{"dense", denseOperator{randomSymmetric(rng, 40)}, randomVector(rng, 40), 36, true},
		{"dense-untriggered", denseOperator{randomSymmetric(rng, 40)}, randomVector(rng, 40), 12, false},
		{"sparse", small, randomVector(rng, small.Dim()), 120, true},
		{"sparse-untriggered", small, randomVector(rng, small.Dim()), 30, false},
		{"sparse-large", large, randomVector(rng, large.Dim()), 10, false},
		{"invariant-subspace", small, trapped, 20, true},
	}
	for _, c := range cases {
		want := refRun(c.op, c.d, c.k, false)
		p, err := NewPlan(c.op, 1, Options{K: c.k})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Solve([][]float64{c.d}); err != nil {
			t.Fatal(err)
		}
		tri, norm := p.tridiagonal(0)
		if !sameBits(tri.Alpha, want.alphas) || !sameBits(tri.Beta, want.betas) || norm != want.norm {
			t.Errorf("%s: recurrence differs from the reference (%d steps, reference %d)", c.name, tri.K(), len(want.alphas))
		}
		if early := len(want.alphas) < c.k; tri.Breakdown != early {
			t.Errorf("%s: Breakdown = %v after %d of %d steps", c.name, tri.Breakdown, tri.K(), c.k)
		}
		t.Logf("%s: %d steps, %d swept", c.name, tri.K(), want.sweeps)
		if got := p.Stats().Reorthogonalized; got != want.sweeps || (got > 0) != c.triggers {
			t.Errorf("%s: %d steps swept, reference %d (expected to fire: %v)", c.name, got, want.sweeps, c.triggers)
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
// one multi-vector product per step — carry the bits of seven one-column
// plans and sweep on their steps, including a column that leaves the active set early
// and two that never enter it; densities likewise.
func TestLockstepMatchesSingleColumns(t *testing.T) {
	op := blockSparse(t, 81, 3)
	starts := sevenStarts(rand.New(rand.NewSource(4)), op.Dim())
	opt := Options{K: 60}
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
	if err := p.Densities(xs, 0.3, nil); err != nil {
		t.Fatal(err)
	}
	var sweeps int
	for c, d := range starts {
		tri, norm := p.tridiagonal(c)
		if c == 4 || c == 5 {
			if tri != nil || p.Density(c) != nil {
				t.Errorf("column %d: a skipped start produced a recurrence", c)
			}
			continue
		}
		single, err := NewPlan(op, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Solve([][]float64{d}); err != nil {
			t.Fatal(err)
		}
		if err := single.Densities(xs, 0.3, nil); err != nil {
			t.Fatal(err)
		}
		sweeps += single.Stats().Reorthogonalized
		want, wantNorm := single.tridiagonal(0)
		if !sameBits(tri.Alpha, want.Alpha) || !sameBits(tri.Beta, want.Beta) || norm != wantNorm || tri.Breakdown != want.Breakdown {
			t.Errorf("column %d: lockstep recurrence differs from one column (%d steps vs %d)", c, tri.K(), want.K())
		}
		if !sameBits(p.Density(c), single.Density(0)) {
			t.Errorf("column %d: lockstep density differs from one column's", c)
		}
	}
	if tri, _ := p.tridiagonal(2); tri.K() > 3 || !tri.Breakdown {
		t.Errorf("trapped column took %d steps, Breakdown = %v", tri.K(), tri.Breakdown)
	}
	want := Stats{Steps: 4*opt.K + p.cols[2].step, EarlyStops: 1, SkippedStarts: 2, Reorthogonalized: sweeps}
	if got := p.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
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
		p, err := NewPlan(op, len(starts), Options{K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Solve(starts); err != nil {
			t.Fatal(err)
		}
		if err := p.Densities(xs, 0.5, nil); err != nil {
			t.Fatal(err)
		}
		var r result
		for c := range starts {
			tri, _ := p.tridiagonal(c)
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
		p, err := NewPlan(op, 7, Options{K: 12})
		if err != nil {
			t.Fatal(err)
		}
		solve := func() {
			if err := p.Solve(starts); err != nil {
				t.Fatal(err)
			}
			if err := p.Densities(xs, 0.4, math.Sqrt); err != nil {
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
// sweeps; both rules and a plan's densities report it as ErrQuadrature instead of
// panicking.
func TestQuadratureFailureIsTyped(t *testing.T) {
	bad := &Tridiagonal{Alpha: []float64{1, math.NaN(), 2, 3}, Beta: []float64{0.5, 0.5, 0.5, 0.5}}
	for _, gagq := range []bool{false, true} {
		if _, err := ruleFor(bad, gagq); !errors.Is(err, ErrQuadrature) {
			t.Errorf("rule (GAGQ %v): %v", gagq, err)
		}
	}
	if _, err := ruleFor(&Tridiagonal{}, false); !errors.Is(err, ErrQuadrature) {
		t.Errorf("empty recurrence: %v", err)
	}

	m := linalg.Identity(6)
	m.Set(2, 2, math.NaN())
	p, err := NewPlan(denseOperator{m}, 2, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve([][]float64{{1, 1, 1, 1, 1, 1}, {1, 0, 0, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Densities([]float64{0, 1}, 0.1, nil); !errors.Is(err, ErrQuadrature) {
		t.Errorf("Plan.Densities: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	op := denseOperator{linalg.Identity(4)}
	if _, err := NewPlan(op, 0, Options{K: 150}); err == nil {
		t.Error("accepted a plan without columns")
	}
	p, err := NewPlan(op, 1, Options{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(make([][]float64, 2)); err == nil {
		t.Error("accepted more start vectors than columns")
	}
}

// orthogonalityLoss is max |QᵀQ − I| over the Lanczos vectors qs.
func orthogonalityLoss(qs [][]float64) float64 {
	var worst float64
	for i := range qs {
		for k := 0; k <= i; k++ {
			g := linalg.Dot(qs[i], qs[k])
			if i == k {
				g--
			}
			worst = math.Max(worst, math.Abs(g))
		}
	}
	return worst
}

// TestSemiOrthogonalMatchesFullReorthogonalization: the plan sweeps only
// where the ω-recurrence asks, yet keeps its vectors semi-orthogonal, stops
// on β-breakdown where full reorthogonalization does, and yields the
// spectral density of the full-reorthogonalization oracle (refRun with
// full set): with n < K, where the Krylov space runs out, and with n ≫ K,
// where converged Ritz values make the plain recurrence lose orthogonality.
// Kernel widths 1 and 4 sweep on the same steps and agree to the bit.
func TestSemiOrthogonalMatchesFullReorthogonalization(t *testing.T) {
	defer par.SetBudget(0)
	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		name  string
		atoms int
		k     int
	}{
		{"breakdown", 24, 120},
		{"n=3000", 1000, 150},
	}
	for _, c := range cases {
		op := blockSparse(t, c.atoms, 22)
		n := op.Dim()
		d := randomVector(rng, n)
		full := refRun(op, d, c.k, true)
		var p *Plan
		for _, width := range []int{1, 4} {
			par.SetBudget(width)
			q, err := NewPlan(op, 1, Options{K: c.k})
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Solve([][]float64{d}); err != nil {
				t.Fatal(err)
			}
			if p == nil {
				p = q
				continue
			}
			a, _ := p.tridiagonal(0)
			b, _ := q.tridiagonal(0)
			if !sameBits(a.Alpha, b.Alpha) || !sameBits(a.Beta, b.Beta) || p.Stats() != q.Stats() {
				t.Errorf("%s: width %d differs from width 1", c.name, width)
			}
		}
		tri, norm := p.tridiagonal(0)
		col := &p.cols[0]
		qs := make([][]float64, tri.K())
		for s := range qs {
			qs[s] = col.row(s)
		}
		loss := orthogonalityLoss(qs)
		st := p.Stats()

		fullTri := &Tridiagonal{Alpha: full.alphas, Beta: full.betas, Breakdown: len(full.alphas) < c.k}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range full.alphas {
			lo, hi = math.Min(lo, a), math.Max(hi, a)
		}
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = lo - 1 + (hi-lo+2)*float64(i)/float64(len(xs)-1)
		}
		sigma := (hi - lo) / 100
		got, err := density(tri, norm, xs, sigma, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := density(fullTri, full.norm, xs, sigma, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		var diff, peak float64
		for i := range xs {
			diff = math.Max(diff, math.Abs(got[i]-want[i]))
			peak = math.Max(peak, math.Abs(want[i]))
		}
		t.Logf("%s: n = %d, %d steps (full %d), %d swept, max|QᵀQ − I| = %.3g, density error %.3g",
			c.name, n, tri.K(), len(full.alphas), st.Reorthogonalized, loss, diff/peak)
		// Semi-orthogonality is what the trigger keeps (measured ≤ 1.2e-10).
		if loss > sqrtEps {
			t.Errorf("%s: max|QᵀQ − I| = %.3g exceeds √ε", c.name, loss)
		}
		if tri.K() != len(full.alphas) || tri.Breakdown != fullTri.Breakdown {
			t.Errorf("%s: stopped after %d steps (Breakdown %v), full reorthogonalization after %d (%v)",
				c.name, tri.K(), tri.Breakdown, len(full.alphas), fullTri.Breakdown)
		}
		if n < c.k && !tri.Breakdown {
			t.Errorf("%s: n = %d < K, yet no β-breakdown", c.name, n)
		}
		if n > c.k && st.Reorthogonalized == 0 {
			t.Errorf("%s: no step swept", c.name)
		}
		// Measured 1.3e-14 (breakdown) and 5.2e-13 (n = 3000) of the peak.
		if diff > 1e-11*peak {
			t.Errorf("%s: density differs from full reorthogonalization by %.3g of its peak", c.name, diff/peak)
		}
	}
}
