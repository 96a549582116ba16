package scf_test

import (
	"errors"
	"math"
	"sort"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// newtonFixture is a model with its converged reference state and the options
// hessian.SolveReference hands the displaced solves (InitDeltaQ set).
type newtonFixture struct {
	name string
	m    *scf.Model
	ref  *scf.Result
	opt  scf.Options
}

func newNewtonFixture(t testing.TB, name string, els []constants.Element, pos []geom.Vec3, smearing float64) newtonFixture {
	t.Helper()
	m, err := scf.NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	job := hessian.DefaultJobOptions()
	job.SCF.Smearing = smearing
	job.SkipAlpha = true
	o, ref, err := hessian.SolveReference(m, job)
	if err != nil {
		t.Fatal(err)
	}
	return newtonFixture{name, m, ref, o.SCF}
}

// counted returns opt with a fresh registry whose Newton fallbacks the caller
// reads back.
func counted(opt scf.Options) (scf.Options, *obs.Registry) {
	reg := obs.NewRegistry()
	opt.Obs = obs.NewScope(nil, reg)
	return opt, reg
}

func fallbacks(reg *obs.Registry) int64 {
	return reg.Counter(obs.MetricSCFNewtonFallbacks).Value()
}

const displacementStep = 5e-3 // hessian.DefaultStep

// TestNewtonMatchesFiniteDifference: the matrix the Newton step eliminates,
// I − χ·Γ with χ the closed-form static susceptibility of one evaluation's
// eigenpairs, is I − ∂F/∂dq of the charge map: its inverse is the
// forward-difference one (refChordMatrix) to 1e-4 of its largest entry — the
// difference is the truncation of the finite differences. Checked at a
// non-self-consistent iterate (one evaluation from neutral atoms) and at the
// ground states of gapped water, water dimer, methane and glycine and of the
// dimer at σ = 0.05, where the intraband response and the Fermi-level shift
// are part of J.
func TestNewtonMatchesFiniteDifference(t *testing.T) {
	wat, watPos := scf.WaterGeometry()
	dim, dimPos := scf.DimerGeometry()
	met, metPos := scf.MethaneGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	for _, fx := range []newtonFixture{
		newNewtonFixture(t, "water", wat, watPos, sigma),
		newNewtonFixture(t, "dimer", dim, dimPos, sigma),
		newNewtonFixture(t, "methane", met, metPos, sigma),
		newNewtonFixture(t, "glycine", gly, glyPos, sigma),
		newNewtonFixture(t, "dimer σ=0.05", dim, dimPos, 0.05),
	} {
		for _, at := range []struct {
			name string
			dq   []float64
		}{{"neutral atoms", make([]float64, fx.m.NumAtoms())}, {"ground state", fx.ref.DeltaQ}} {
			want := scf.RefChordMatrix(fx.m, at.dq, fx.opt)
			if want == nil {
				t.Fatalf("%s at %s: no finite-difference matrix", fx.name, at.name)
			}
			got := scf.NewtonMatrix(t, fx.m, fx.opt, at.dq)
			var scale float64
			for _, x := range got.Data {
				scale = math.Max(scale, math.Abs(x))
			}
			d := got.MaxAbsDiff(want)
			if !(d <= 1e-4*scale) {
				t.Errorf("%s at %s: closed-form and finite-difference (I − J)⁻¹ differ by %.2g (largest entry %.2g)", fx.name, at.name, d, scale)
			}
			t.Logf("%s at %s: max |M − M_fd| %.2g, max |M| %.2g", fx.name, at.name, d, scale)
		}
	}
}

// TestNewtonFromNeutralAtoms: from neutral atoms, the gapped water, water
// dimer, methane and glycine converge in at most six charge-map evaluations
// and never hand over to the Pulay mixer.
func TestNewtonFromNeutralAtoms(t *testing.T) {
	wat, watPos := scf.WaterGeometry()
	dim, dimPos := scf.DimerGeometry()
	met, metPos := scf.MethaneGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	for _, fx := range []struct {
		name string
		els  []constants.Element
		pos  []geom.Vec3
	}{{"water", wat, watPos}, {"dimer", dim, dimPos}, {"methane", met, metPos}, {"glycine", gly, glyPos}} {
		m, err := scf.NewModel(fx.els, fx.pos)
		if err != nil {
			t.Fatal(err)
		}
		opt, reg := counted(scf.DefaultOptions())
		res, err := m.SolveSCF(opt)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if n := fallbacks(reg); res.Iterations > 6 || n != 0 {
			t.Errorf("%s: %d evaluations and %d fallbacks, want ≤ 6 and 0", fx.name, res.Iterations, n)
		}
		t.Logf("%s: %d evaluations", fx.name, res.Iterations)
	}
}

// TestNewtonDisplacedSolvesNeverFallBack: every ±δ displacement of the
// dimer, glycine and the dimer at σ = 0.05, started from the reference
// charges as the displacement loop starts it, converges without handing
// over to the Pulay mixer.
func TestNewtonDisplacedSolvesNeverFallBack(t *testing.T) {
	dim, dimPos := scf.DimerGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	for _, fx := range []newtonFixture{
		newNewtonFixture(t, "dimer", dim, dimPos, sigma),
		newNewtonFixture(t, "glycine", gly, glyPos, sigma),
		newNewtonFixture(t, "dimer σ=0.05", dim, dimPos, 0.05),
	} {
		opt, reg := counted(fx.opt)
		ws := scf.NewWorkspace(fx.m)
		var iters int
		for atom := 0; atom < fx.m.NumAtoms(); atom++ {
			for axis := 0; axis < 3; axis++ {
				for _, sign := range []float64{1, -1} {
					md := fx.m.Displaced(atom, axis, sign*displacementStep)
					got, err := ws.Solve(md, opt)
					if err != nil {
						t.Fatalf("%s atom %d axis %d sign %+g: %v", fx.name, atom, axis, sign, err)
					}
					iters += got.Iterations
				}
			}
		}
		if n := fallbacks(reg); n != 0 {
			t.Errorf("%s: %d of %d displaced solves fell back to Pulay", fx.name, n, 6*fx.m.NumAtoms())
		}
		t.Logf("%s: %d evaluations over %d displacements", fx.name, iters, 6*fx.m.NumAtoms())
	}
}

// TestNewtonLoopMatchesPulayFixedPoint holds the Newton charge loop to what a
// charge loop is for, on every displacement of water, dimer and glycine: the
// returned charges are a fixed point of the charge map, evaluated afresh
// outside the loop, to 10·Tol (the loop stops when its input moves by less
// than Tol and returns the output, so the map's Lipschitz constant — 4 on
// glycine — stands between the two); they agree with the Pulay-only solve of
// the same geometry (scf.SolvePulay) to Tol and the energies to 1e-12 Eₕ —
// two paths to one fixed point; the median solve takes fewer evaluations than
// the Pulay loop's; and kernel widths 1 and 4 give the same bits.
func TestNewtonLoopMatchesPulayFixedPoint(t *testing.T) {
	defer par.SetBudget(0)
	wat, watPos := scf.WaterGeometry()
	dim, dimPos := scf.DimerGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	for _, fx := range []newtonFixture{
		newNewtonFixture(t, "water", wat, watPos, sigma),
		newNewtonFixture(t, "dimer", dim, dimPos, sigma),
		newNewtonFixture(t, "glycine", gly, glyPos, sigma),
	} {
		ws, wsPulay := scf.NewWorkspace(fx.m), scf.NewWorkspace(fx.m)
		var newtonIters, pulayIters []int
		var worst float64
		for atom := 0; atom < fx.m.NumAtoms(); atom++ {
			for axis := 0; axis < 3; axis++ {
				for _, sign := range []float64{1, -1} {
					md := fx.m.Displaced(atom, axis, sign*displacementStep)
					par.SetBudget(1)
					got, err := ws.Solve(md, fx.opt)
					if err != nil {
						t.Fatalf("%s atom %d axis %d: %v", fx.name, atom, axis, err)
					}
					dq, energy, iters := append([]float64(nil), got.DeltaQ...), got.Energy, got.Iterations
					if r := scf.FixedPointResidual(t, md, fx.opt, dq); !(r < 10*fx.opt.Tol) {
						t.Errorf("%s atom %d axis %d: converged charges miss the fixed point by %g", fx.name, atom, axis, r)
					}
					want, err := scf.SolvePulay(wsPulay, md, fx.opt)
					if err != nil {
						t.Fatal(err)
					}
					d := scf.MaxAbsDiff(dq, want.DeltaQ)
					worst = math.Max(worst, d)
					if d > fx.opt.Tol {
						t.Errorf("%s atom %d axis %d: charges differ from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					if d := math.Abs(energy - want.Energy); d > 1e-12 {
						t.Errorf("%s atom %d axis %d: energy differs from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					newtonIters, pulayIters = append(newtonIters, iters), append(pulayIters, want.Iterations)

					par.SetBudget(4)
					wide, err := ws.Solve(md, fx.opt)
					if err != nil {
						t.Fatal(err)
					}
					if !scf.BitEqualFloats(wide.DeltaQ, dq) || math.Float64bits(wide.Energy) != math.Float64bits(energy) ||
						wide.Iterations != iters {
						t.Errorf("%s atom %d axis %d: kernel widths 1 and 4 disagree", fx.name, atom, axis)
					}
				}
			}
		}
		sort.Ints(newtonIters)
		sort.Ints(pulayIters)
		mn, mp := newtonIters[len(newtonIters)/2], pulayIters[len(pulayIters)/2]
		t.Logf("%s: median evaluations Newton %d (max %d), Pulay %d; charges within %.2g", fx.name, mn, newtonIters[len(newtonIters)-1], mp, worst)
		if mn >= mp {
			t.Errorf("%s: Newton loop (%d) no faster than Pulay (%d)", fx.name, mn, mp)
		}
	}
}

// TestNewtonFallsBackToPulay: a residual that stops decreasing hands the
// iterate to the Pulay mixer once, counted, and the span reports the Newton
// steps taken before it. An unreachable tolerance makes the hand-over certain:
// the Newton steps reach the rounding floor, where the residual no longer
// shrinks, and the mixer runs out the iterations into the typed
// ErrNotConverged. A small-gap, strongly smeared fragment, whichever way its
// loop goes, converges to the Pulay fixed point.
func TestNewtonFallsBackToPulay(t *testing.T) {
	wat, watPos := scf.WaterGeometry()
	m, err := scf.NewModel(wat, watPos)
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	opt := scf.DefaultOptions()
	opt.Tol, opt.MaxIter = 1e-300, 30
	opt.Obs = obs.NewScope(tr, reg)
	if _, err := m.SolveSCF(opt); !errors.Is(err, scf.ErrNotConverged) {
		t.Fatalf("unreachable tolerance: %v, want ErrNotConverged", err)
	}
	if n := fallbacks(reg); n != 1 {
		t.Errorf("unreachable tolerance: %d fallbacks counted, want 1", n)
	}
	var steps int64 = -1
	for _, s := range tr.Snapshot() {
		if s.Name == "scf" {
			steps, _ = s.Arg("newton_steps")
		}
	}
	if steps < 1 || steps >= int64(opt.MaxIter) {
		t.Errorf("unreachable tolerance: scf span carries newton_steps = %d of %d iterations", steps, opt.MaxIter)
	}
	t.Logf("unreachable tolerance: %d Newton steps before the hand-over", steps)

	// The dimer at 25× the default electronic temperature: fractional
	// frontier occupations, the Fermi level moving with the charges.
	dim, dimPos := scf.DimerGeometry()
	hot := newNewtonFixture(t, "dimer σ=0.05", dim, dimPos, 0.05)
	ws := scf.NewWorkspace(hot.m)
	for atom := 0; atom < hot.m.NumAtoms(); atom++ {
		mdHot := hot.m.Displaced(atom, atom%3, displacementStep)
		got, err := mdHot.SolveSCF(hot.opt)
		if err != nil {
			t.Fatalf("smeared dimer atom %d: %v", atom, err)
		}
		ref, err := scf.SolvePulay(ws, mdHot, hot.opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := scf.MaxAbsDiff(got.DeltaQ, ref.DeltaQ); d > 10*hot.opt.Tol {
			t.Errorf("smeared dimer atom %d: charges differ from the Pulay solve by %g", atom, d)
		}
		if d := math.Abs(got.Energy - ref.Energy); d > 1e-12 {
			t.Errorf("smeared dimer atom %d: energy differs from the Pulay solve by %g", atom, d)
		}
	}
}
