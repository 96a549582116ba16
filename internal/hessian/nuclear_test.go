package hessian

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// occupationDeviation returns the largest distance of an occupation from 0
// or 2.
func occupationDeviation(g *scf.Result) float64 {
	var dev float64
	for _, f := range g.Occ {
		dev = math.Max(dev, math.Min(f, 2-f))
	}
	return dev
}

// richardsonHessian takes the Hessian by the displacement loop the analytic
// route replaced — 6N displaced SCF solves from the reference's charges,
// central differences of their forces — at steps δ and δ/2 with the charge
// loops converged to 1e-13, Richardson-extrapolated.
func richardsonHessian(t *testing.T, m *scf.Model, r *reference) *linalg.Matrix {
	t.Helper()
	var fd [2]*FragmentData
	for i, step := range [2]float64{DefaultStep, DefaultStep / 2} {
		opt := r.opt
		opt.Step = step
		opt.SkipAlpha = true
		opt.SCF.Tol = 1e-13
		res, err := displace(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if fd[i], err = BuildFragmentData(m.NumAtoms(), res, step, false); err != nil {
			t.Fatal(err)
		}
	}
	out := fd[1].Hess.Clone()
	for i, a := range fd[0].Hess.Data {
		out.Data[i] = (4*fd[1].Hess.Data[i] - a) / 3
	}
	return out
}

// maxAbs returns max|x| over a matrix's entries.
func maxAbs(h *linalg.Matrix) float64 {
	var s float64
	for _, v := range h.Data {
		s = math.Max(s, math.Abs(v))
	}
	return s
}

// TestNuclearHessianMatchesRichardson is the oracle of the analytic Hessian:
// on the gapped γ-mode fixtures it matches the Richardson-extrapolated central
// difference (δ and δ/2) of the kept displacement loop's forces to 1e-6
// relative to the largest entry where the occupations are integral, and to ten
// times their distance from 0 and 2 where they are not (glycine at the
// production σ = 0.002, 6.4e-7; the analytic route differentiates the
// integral occupations' projector and W = ½·P·H·P).
func TestNuclearHessianMatchesRichardson(t *testing.T) {
	for _, fx := range analyticFixtures(t) {
		if testing.Short() && fx.name == "glycine" {
			continue
		}
		m, err := ModelForFragment(fx.f)
		if err != nil {
			t.Fatal(err)
		}
		r, err := solveReference(m, DefaultJobOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.analytic == nil || r.analytic.Hess == nil {
			t.Fatalf("%s: a gapped γ-mode reference did not take the analytic route", fx.name)
		}
		want := richardsonHessian(t, m, r)
		dev := occupationDeviation(r.ref)
		tol := math.Max(1e-6, 10*dev)
		rel := r.analytic.Hess.MaxAbsDiff(want) / maxAbs(want)
		t.Logf("%s: analytic Hessian off the Richardson difference by %.1e relative (occupations %.1e from integral)", fx.name, rel, dev)
		if rel > tol {
			t.Errorf("%s: analytic Hessian off the Richardson finite difference by %.1e, bound %.1e", fx.name, rel, tol)
		}
	}
}

// rawNuclearHessian returns the unsymmetrized analytic Hessian of the model
// at its reference geometry, with the reference SCF converged to 1e-12.
func rawNuclearHessian(t *testing.T, m *scf.Model) *linalg.Matrix {
	t.Helper()
	opt := DefaultJobOptions().SCF
	opt.Tol = 1e-12
	ref, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	_, nr, err := dfpt.Responses(m, ref, DefaultJobOptions().DFPT)
	if err != nil {
		t.Fatal(err)
	}
	return m.NuclearHessian(ref, nr)
}

// calibratedModel is ModelForFragment that fails the test on error.
func calibratedModel(t *testing.T, f *fragment.Fragment) *scf.Model {
	t.Helper()
	m, err := ModelForFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNuclearHessianSymmetricAndTranslationInvariant: before symmetrization
// the analytic Hessian is symmetric, |H_xy − H_yx| ≤ 1e-8·max|H| — the two
// are different formulas, one the derivative of the x force along y, the
// other of the y force along x — and every row obeys the translational sum
// rule Σ_B H_{Aa,Bb} = 0 to 1e-9·max|H|: moving every atom alike moves
// nothing the energy sees. The asymmetry is 1e-15 where the occupations are
// integral; glycine's 7e-9 is its occupation tail (6.5e-7 from integral at
// σ = 0.002, 8e-15 asymmetry at σ = 0.001).
func TestNuclearHessianSymmetricAndTranslationInvariant(t *testing.T) {
	for _, fx := range analyticFixtures(t) {
		h := rawNuclearHessian(t, calibratedModel(t, fx.f))
		scale := maxAbs(h)
		var asym, sumRule float64
		n3 := h.Rows
		for x := 0; x < n3; x++ {
			for y := 0; y < n3; y++ {
				asym = math.Max(asym, math.Abs(h.At(x, y)-h.At(y, x)))
			}
			for b := 0; b < 3; b++ {
				var s float64
				for at := 0; at < n3/3; at++ {
					s += h.At(x, 3*at+b)
				}
				sumRule = math.Max(sumRule, math.Abs(s))
			}
		}
		t.Logf("%s: max|H_xy − H_yx| %.1e, max|Σ_B H_{Aa,Bb}| %.1e of max|H| %.3f", fx.name, asym, sumRule, scale)
		if asym > 1e-8*scale {
			t.Errorf("%s: raw analytic Hessian asymmetric by %.1e (max|H| %.3f)", fx.name, asym, scale)
		}
		if sumRule > 1e-9*scale {
			t.Errorf("%s: translational sum rule broken by %.1e (max|H| %.3f)", fx.name, sumRule, scale)
		}
	}
}

// TestNuclearHessianRotationCovariant: rotating the calibrated reference by R
// turns each 3×3 block H_AB of its Hessian into R·H_AB·Rᵀ, to the SCF's
// convergence. The rotated model carries the calibrated model's linear terms:
// a redundant set of internal coordinates (methane's six angles) leaves part
// of the least-squares fit to rounding, which a second calibration would
// resolve differently — a different potential, not a different orientation.
func TestNuclearHessianRotationCovariant(t *testing.T) {
	axis, angle := geom.V(0.43, -1.2, 0.77), 2.3
	var rot [3][3]float64 // rot[i][j]: component i of the rotated unit vector j
	for j := 0; j < 3; j++ {
		var e [3]float64
		e[j] = 1
		v := geom.RotateAbout(geom.V(e[0], e[1], e[2]), geom.Vec3{}, axis, angle)
		rot[0][j], rot[1][j], rot[2][j] = v.X, v.Y, v.Z
	}
	for _, fx := range analyticFixtures(t) {
		m := calibratedModel(t, fx.f)
		h := rawNuclearHessian(t, m)
		turned := make([]geom.Vec3, len(fx.f.Pos))
		for i, p := range fx.f.Pos {
			turned[i] = geom.RotateAbout(p, geom.Vec3{}, axis, angle)
		}
		mt, err := scf.NewModel(fx.f.Els, turned)
		if err != nil {
			t.Fatal(err)
		}
		if len(mt.Bonds) != len(m.Bonds) || len(mt.Angles) != len(m.Angles) || len(mt.Dihedrals) != len(m.Dihedrals) {
			t.Fatalf("%s: the rotated fragment has another force field", fx.name)
		}
		// Terms are detected in an orientation-dependent order: match them by
		// their atoms.
		bonds, angles, dihedrals := map[[2]int]float64{}, map[[3]int]float64{}, map[[4]int]float64{}
		for _, b := range m.Bonds {
			bonds[[2]int{min(b.I, b.J), max(b.I, b.J)}] = b.C
		}
		for _, a := range m.Angles {
			angles[[3]int{min(a.I, a.Kk), a.J, max(a.I, a.Kk)}] = a.C
		}
		for _, d := range m.Dihedrals {
			dihedrals[[4]int{d.I, d.J, d.Kk, d.L}] = d.C
		}
		for i, b := range mt.Bonds {
			mt.Bonds[i].C = bonds[[2]int{min(b.I, b.J), max(b.I, b.J)}]
		}
		for i, a := range mt.Angles {
			mt.Angles[i].C = angles[[3]int{min(a.I, a.Kk), a.J, max(a.I, a.Kk)}]
		}
		for i, d := range mt.Dihedrals {
			c, ok := dihedrals[[4]int{d.I, d.J, d.Kk, d.L}]
			if !ok {
				t.Fatalf("%s: dihedral %d–%d–%d–%d has no counterpart", fx.name, d.I, d.J, d.Kk, d.L)
			}
			mt.Dihedrals[i].C = c
		}
		ht := rawNuclearHessian(t, mt)
		var worst float64
		na := h.Rows / 3
		for a := 0; a < na; a++ {
			for b := 0; b < na; b++ {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						var want float64
						for k := 0; k < 3; k++ {
							for l := 0; l < 3; l++ {
								want += rot[i][k] * rot[j][l] * h.At(3*a+k, 3*b+l)
							}
						}
						worst = math.Max(worst, math.Abs(ht.At(3*a+i, 3*b+j)-want))
					}
				}
			}
		}
		scale := maxAbs(h)
		t.Logf("%s: rotated Hessian off by %.1e of max|H| %.3f", fx.name, worst, scale)
		if worst > 1e-8*scale {
			t.Errorf("%s: Hessian not rotation covariant: %.1e (max|H| %.3f)", fx.name, worst, scale)
		}
	}
}

// fragmentDataSHA256 hashes every bit of a FragmentData: the Hessian, then the
// six ∂α and the three ∂μ vectors, each float by its bit pattern.
func fragmentDataSHA256(fd *FragmentData) string {
	h := sha256.New()
	put := func(xs []float64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	put(fd.Hess.Data)
	for _, d := range fd.DAlpha {
		put(d)
	}
	for _, d := range fd.DDipole {
		put(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDisplacementLoopRoutesKeepTheirBits: a fractional ground state (the
// water dimer at σ = 0.05) and grid mode's degenerate levels (methane's t2,
// dfpt.SplitLevels) still run the displacement loop — 6N displaced jobs and
// the finite-difference counter — and the dimer reproduces its pinned
// FragmentData to the bit (SHA-256 recorded at engine/13). Gapped grid-mode
// and γ-mode waters run no displaced job. The loop still ships, so the
// grid-mode water's loop FragmentData stays pinned too, by running the
// reference hand-over, the loop at kernel budgets 1 and 4 and the central
// differences directly.
func TestDisplacementLoopRoutesKeepTheirBits(t *testing.T) {
	grid := DefaultJobOptions()
	grid.DFPT.Coulomb = dfpt.GridCoulomb
	coarse := grid
	coarse.DFPT.GridSpacing, coarse.DFPT.GridMargin = 0.8, 4.0
	smeared := DefaultJobOptions()
	smeared.SCF.Smearing = 0.05
	for _, c := range []struct {
		name string
		f    *fragment.Fragment
		opt  JobOptions
		loop bool
		sha  string
	}{
		{"grid-mode water", waterFragment(), grid, false, ""},
		{"grid-mode methane", methaneFragment(), coarse, true, ""},
		{"dimer σ=0.05", dimerFragment(), smeared, true, smearedDimerSHA256},
		{"γ-mode water", waterFragment(), DefaultJobOptions(), false, ""},
	} {
		reg := obs.NewRegistry()
		opt := c.opt
		opt.Obs = obs.NewScope(nil, reg)
		data, _, err := ComputeFragment(c.f, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		jobs := reg.Counter(obs.MetricHessianDisplacedJobs).Value()
		fdFrags := reg.Counter(obs.MetricHessianFDDerivativeFragments).Value()
		if !c.loop {
			if jobs != 0 || fdFrags != 0 {
				t.Errorf("%s: %d displaced jobs, %d finite-difference fragments; want none", c.name, jobs, fdFrags)
			}
			continue
		}
		if want := int64(6 * c.f.NumAtoms()); jobs != want || fdFrags != 1 {
			t.Errorf("%s: %d displaced jobs, %d finite-difference fragments; want %d and 1", c.name, jobs, fdFrags, want)
		}
		if c.sha == "" {
			continue
		}
		if got := fragmentDataSHA256(data); got != c.sha {
			t.Errorf("%s: FragmentData SHA-256 %s, want %s", c.name, got, c.sha)
		}
	}

	m, err := ModelForFragment(waterFragment())
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := SolveReference(m, grid)
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetBudget(par.Budget())
	for _, budget := range []int{1, 4} {
		par.SetBudget(budget)
		results, err := displace(m, *o)
		if err != nil {
			t.Fatal(err)
		}
		data, err := BuildFragmentData(len(m.Els), results, grid.Step, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := fragmentDataSHA256(data); got != gridWaterSHA256 {
			t.Errorf("grid-mode water through the loop at kernel budget %d: FragmentData SHA-256 %s, want %s", budget, got, gridWaterSHA256)
		}
	}
}

// The FragmentData of TestDisplacementLoopRoutesKeepTheirBits'
// displacement-loop runs: the grid-mode water through the loop directly
// (recorded at engine/11), the dimer through ComputeFragment (recorded at
// engine/13, whose γ-mode α of each displaced job moved ∂α by ≤ 2.4e-13 of
// each component's largest entry; its Hessian and ∂μ kept every bit). Both
// are amd64 facts: a compiler that fuses multiply-adds (arm64) rounds
// differently and will not reproduce them (ROADMAP item 16).
const (
	gridWaterSHA256    = "222663cef3864f2fe2a35cad6211f66f8f5df27a3049f95c8641ff6ef0b7c782"
	smearedDimerSHA256 = "7e76b4a31e0a59fdc25b5ab054cda455bebd88d5b5aae5c4ab7b0c3f053c6e80"
)
