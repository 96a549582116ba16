package hessian

import (
	"math"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/par"
)

func methaneFragment() *fragment.Fragment {
	d := 1.09 / math.Sqrt(3)
	return &fragment.Fragment{
		Els: []constants.Element{constants.C, constants.H, constants.H, constants.H, constants.H},
		Pos: []geom.Vec3{
			{}, geom.V(d, d, d), geom.V(d, -d, -d), geom.V(-d, d, -d), geom.V(-d, -d, d),
		},
		GlobalIdx: []int{0, 1, 2, 3, 4},
		NumReal:   5,
		Coeff:     1,
	}
}

// analyticFixtures are the gapped γ-mode fragments of the analytic-derivative
// oracles.
func analyticFixtures(t testing.TB) []struct {
	name string
	f    *fragment.Fragment
} {
	return []struct {
		name string
		f    *fragment.Fragment
	}{
		{"water", waterFragment()},
		{"water dimer", dimerFragment()},
		{"methane", methaneFragment()},
		{"glycine", glycineFragment(t)},
	}
}

// richardsonDerivatives takes DDipole and DAlpha by the finite-difference path
// the analytic one replaced — 6N displaced SCF + DFPT jobs, central
// differences — at steps δ and δ/2, Richardson-extrapolated.
func richardsonDerivatives(t *testing.T, f *fragment.Fragment, sigma float64) (*FragmentData, *reference) {
	t.Helper()
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultJobOptions()
	opt.SCF.Smearing = sigma
	r, err := solveReference(m, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fd [2]*FragmentData
	for i, step := range [2]float64{DefaultStep, DefaultStep / 2} {
		opt := r.opt
		opt.Step = step
		opt.SCF.Tol = 1e-13
		d := NewDisplacer(m)
		res := allDisplacements(t, m, func(atom, axis, sign int) (*DisplacementResult, error) {
			return d.Run(atom, axis, sign, opt)
		})
		if fd[i], err = BuildFragmentData(m.NumAtoms(), res, step, true); err != nil {
			t.Fatal(err)
		}
	}
	out := &FragmentData{}
	extrapolate := func(a, b []float64) []float64 {
		x := make([]float64, len(a))
		for i := range a {
			x[i] = (4*b[i] - a[i]) / 3
		}
		return x
	}
	for k := range out.DDipole {
		out.DDipole[k] = extrapolate(fd[0].DDipole[k], fd[1].DDipole[k])
	}
	for c := range out.DAlpha {
		out.DAlpha[c] = extrapolate(fd[0].DAlpha[c], fd[1].DAlpha[c])
	}
	return out, r
}

// relDiff returns max|a − b| over max|b| of two sets of derivative vectors.
func relDiff(a, b [][]float64) float64 {
	var worst, scale float64
	for k := range a {
		for i, v := range a[k] {
			worst = math.Max(worst, math.Abs(v-b[k][i]))
			scale = math.Max(scale, math.Abs(b[k][i]))
		}
	}
	return worst / scale
}

// TestAnalyticDerivativesMatchRichardson is the oracle of the analytic path:
// the dipole and polarizability derivatives taken at the reference geometry
// match a Richardson-extrapolated central difference (δ and δ/2) of displaced
// SCF + DFPT solves to 1e-6 relative to the largest entry wherever the
// occupations are integral — water, the water dimer and methane at the
// production smearing, glycine at σ = 0.001. At the production σ = 0.002
// glycine's frontier occupations are 6.4e-7 from 0 and 2; both paths then
// drop terms of that order (the analytic one differentiates the integral
// occupations' W = ½·P·H·P and projector, the displaced DFPT neglects the
// occupied–occupied and intraband response), and the two agree to ten times
// the largest deviation.
func TestAnalyticDerivativesMatchRichardson(t *testing.T) {
	type oracle struct {
		name  string
		f     *fragment.Fragment
		sigma float64
	}
	var cases []oracle
	for _, fx := range analyticFixtures(t) {
		cases = append(cases, oracle{fx.name, fx.f, DefaultJobOptions().SCF.Smearing})
	}
	cases = append(cases, oracle{"glycine σ=0.001", glycineFragment(t), 0.001})
	for _, fx := range cases {
		want, r := richardsonDerivatives(t, fx.f, fx.sigma)
		a := r.analytic
		if a == nil {
			t.Fatalf("%s: a gapped γ-mode reference did not take the analytic path", fx.name)
		}
		var dev float64 // the largest distance of an occupation from 0 or 2
		for _, f := range r.ref.Occ {
			dev = math.Max(dev, math.Min(f, 2-f))
		}
		tol := math.Max(1e-6, 10*dev)
		dMu := relDiff(a.DDipole[:], want.DDipole[:])
		dAlpha := relDiff(a.DAlpha[:], want.DAlpha[:])
		t.Logf("%s: ∂μ/∂x off by %.1e, ∂α/∂x by %.1e relative to the largest entry (occupations %.1e from integral)",
			fx.name, dMu, dAlpha, dev)
		if dMu > tol || dAlpha > tol {
			t.Errorf("%s: analytic derivatives off the Richardson finite difference: ∂μ %.1e, ∂α %.1e, bound %.1e",
				fx.name, dMu, dAlpha, tol)
		}
	}
}

// analyticReference solves the reference of f and returns its model and
// analytic derivatives.
func analyticReference(t *testing.T, f *fragment.Fragment) (*reference, int) {
	t.Helper()
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	r, err := solveReference(m, DefaultJobOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.analytic == nil {
		t.Fatal("a gapped γ-mode reference did not take the analytic path")
	}
	return r, m.NumAtoms()
}

// TestAnalyticDerivativeSumRules: moving every atom by the same vector moves
// the charge distribution rigidly, so Σ_A ∂α/∂R_{A,a} = 0 and
// Σ_A ∂μ_b/∂R_{A,a} = Q·δ_ab with Q = −Σ_A Δq_A the fragment's charge.
func TestAnalyticDerivativeSumRules(t *testing.T) {
	for _, fx := range analyticFixtures(t) {
		r, na := analyticReference(t, fx.f)
		var q float64
		for _, dq := range r.ref.DeltaQ {
			q -= dq
		}
		var worstMu, worstAlpha, scaleMu, scaleAlpha float64
		for b := 0; b < 3; b++ {
			for a := 0; a < 3; a++ {
				var sum float64
				for at := 0; at < na; at++ {
					sum += r.analytic.DDipole[b][3*at+a]
					scaleMu = math.Max(scaleMu, math.Abs(r.analytic.DDipole[b][3*at+a]))
				}
				if a == b {
					sum -= q
				}
				worstMu = math.Max(worstMu, math.Abs(sum))
			}
		}
		for _, d := range r.analytic.DAlpha {
			for a := 0; a < 3; a++ {
				var sum float64
				for at := 0; at < na; at++ {
					sum += d[3*at+a]
					scaleAlpha = math.Max(scaleAlpha, math.Abs(d[3*at+a]))
				}
				worstAlpha = math.Max(worstAlpha, math.Abs(sum))
			}
		}
		t.Logf("%s: |Σ_A ∂μ/∂R_A − Q·δ| %.1e of %.2f, |Σ_A ∂α/∂R_A| %.1e of %.2f", fx.name, worstMu, scaleMu, worstAlpha, scaleAlpha)
		if worstMu > 1e-10*scaleMu || worstAlpha > 1e-10*scaleAlpha {
			t.Errorf("%s: translational sum rules broken: ∂μ %.1e, ∂α %.1e", fx.name, worstMu, worstAlpha)
		}
	}
}

// TestAnalyticDerivativesRotationCovariant: rotating the fragment by R turns
// ∂μ_b/∂R_{A,a} into R_bb'·R_aa'·∂μ_b'/∂R_{A,a'} and ∂α_bc/∂R_{A,a} into
// R_bb'·R_cc'·R_aa'·∂α_b'c'/∂R_{A,a'}, to the SCF's convergence.
func TestAnalyticDerivativesRotationCovariant(t *testing.T) {
	axis, angle := geom.V(0.43, -1.2, 0.77), 2.3
	var rot [3][3]float64 // rot[i][j]: component i of the rotated unit vector j
	for j := 0; j < 3; j++ {
		var e [3]float64
		e[j] = 1
		v := geom.RotateAbout(geom.V(e[0], e[1], e[2]), geom.Vec3{}, axis, angle)
		rot[0][j], rot[1][j], rot[2][j] = v.X, v.Y, v.Z
	}
	for _, fx := range analyticFixtures(t) {
		r, na := analyticReference(t, fx.f)
		turned := *fx.f
		turned.Pos = make([]geom.Vec3, len(fx.f.Pos))
		for i, p := range fx.f.Pos {
			turned.Pos[i] = geom.RotateAbout(p, geom.Vec3{}, axis, angle)
		}
		rr, _ := analyticReference(t, &turned)
		dAlpha, dAlphaTurned := alphaTensor(r.analytic), alphaTensor(rr.analytic)
		var worstMu, worstAlpha, scaleMu, scaleAlpha float64
		for at := 0; at < na; at++ {
			for b := 0; b < 3; b++ {
				for a := 0; a < 3; a++ {
					var want float64
					for b2 := 0; b2 < 3; b2++ {
						for a2 := 0; a2 < 3; a2++ {
							want += rot[b][b2] * rot[a][a2] * r.analytic.DDipole[b2][3*at+a2]
						}
					}
					worstMu = math.Max(worstMu, math.Abs(rr.analytic.DDipole[b][3*at+a]-want))
					scaleMu = math.Max(scaleMu, math.Abs(want))
					for c := 0; c < 3; c++ {
						var want float64
						for b2 := 0; b2 < 3; b2++ {
							for c2 := 0; c2 < 3; c2++ {
								for a2 := 0; a2 < 3; a2++ {
									want += rot[b][b2] * rot[c][c2] * rot[a][a2] * dAlpha[b2][c2][3*at+a2]
								}
							}
						}
						worstAlpha = math.Max(worstAlpha, math.Abs(dAlphaTurned[b][c][3*at+a]-want))
						scaleAlpha = math.Max(scaleAlpha, math.Abs(want))
					}
				}
			}
		}
		t.Logf("%s: rotated ∂μ off by %.1e of %.2f, ∂α by %.1e of %.2f", fx.name, worstMu, scaleMu, worstAlpha, scaleAlpha)
		if worstMu > 1e-10*scaleMu || worstAlpha > 1e-10*scaleAlpha {
			t.Errorf("%s: derivatives not rotation covariant: ∂μ %.1e, ∂α %.1e", fx.name, worstMu, worstAlpha)
		}
	}
}

// alphaTensor indexes fd's ∂α by both tensor indices.
func alphaTensor(fd *FragmentData) (out [3][3][]float64) {
	for c, ij := range AlphaComponents {
		out[ij[0]][ij[1]], out[ij[1]][ij[0]] = fd.DAlpha[c], fd.DAlpha[c]
	}
	return out
}

// TestAnalyticFragmentDataWidthIndependent: the fragment engine's output on
// the analytic route — Hessian, dipole and polarizability derivatives — is
// the same to the bit at kernel width 1 with one displacement worker and at
// width 4 with four; and its Hessian is the SkipAlpha run's to the bit — the
// field derivatives move no bit of the nuclear response.
func TestAnalyticFragmentDataWidthIndependent(t *testing.T) {
	defer par.SetBudget(0)
	for _, fx := range analyticFixtures(t) {
		par.SetBudget(1)
		narrow, _, err := ComputeFragment(fx.f, DefaultJobOptions(), 1)
		if err != nil {
			t.Fatal(err)
		}
		par.SetBudget(4)
		wide, _, err := ComputeFragment(fx.f, DefaultJobOptions(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !narrow.BitEqual(wide) {
			t.Errorf("%s: width 4 differs bitwise from width 1", fx.name)
		}
		hessOnly := DefaultJobOptions()
		hessOnly.SkipAlpha = true
		h, _, err := ComputeFragment(fx.f, hessOnly, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqualSlice(narrow.Hess.Data, h.Hess.Data) {
			t.Errorf("%s: the analytic path's Hessian differs bitwise from the SkipAlpha run's", fx.name)
		}
	}
}

// TestGridAnalyticRouteMatchesTheLoop: a gapped grid-mode water takes the
// analytic route — the γ route's Hessian and ∂μ, the adjoint's ∂α — and
// agrees with the displacement loop it replaces (run directly, as the
// degenerate levels still run it): Hessian and ∂μ to the loop's O(Step²),
// 1e-4 of their largest entry, ∂α to 2e-3 (the planar water's point count
// along z jumps under the loop's −z steps). Its output is the same to the bit
// at kernel width 1 with one worker and at width 4 with four.
func TestGridAnalyticRouteMatchesTheLoop(t *testing.T) {
	defer par.SetBudget(0)
	opt := DefaultJobOptions()
	opt.DFPT.Coulomb = dfpt.GridCoulomb
	f := waterFragment()
	par.SetBudget(1)
	narrow, _, err := ComputeFragment(f, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	par.SetBudget(4)
	wide, _, err := ComputeFragment(f, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !narrow.BitEqual(wide) {
		t.Error("grid analytic route: width 4 differs bitwise from width 1")
	}
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := SolveReference(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := displace(m, *o, 2)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := BuildFragmentData(len(m.Els), results, opt.Step, true)
	if err != nil {
		t.Fatal(err)
	}
	hess := relDiff([][]float64{narrow.Hess.Data}, [][]float64{loop.Hess.Data})
	dMu := relDiff(narrow.DDipole[:], loop.DDipole[:])
	dAlpha := relDiff(narrow.DAlpha[:], loop.DAlpha[:])
	t.Logf("analytic vs loop: Hessian %.1e, ∂μ %.1e, ∂α %.1e", hess, dMu, dAlpha)
	if hess > 1e-4 || dMu > 1e-4 || dAlpha > 2e-3 {
		t.Errorf("analytic grid route off the loop: Hessian %.1e, ∂μ %.1e, ∂α %.1e", hess, dMu, dAlpha)
	}
}
