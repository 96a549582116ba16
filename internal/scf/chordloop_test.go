package scf_test

import (
	"math"
	"sort"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// chordFixture is a model with its converged reference state and the chord
// matrix of it, as hessian.SolveReference hands them to the displaced solves.
type chordFixture struct {
	name string
	m    *scf.Model
	ref  *scf.Result
	opt  scf.Options // InitDeltaQ and Chord set
}

func newChordFixture(t testing.TB, name string, els []constants.Element, pos []geom.Vec3, smearing float64) chordFixture {
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
	if o.SCF.Chord == nil {
		t.Fatalf("%s: no chord matrix at the reference", name)
	}
	return chordFixture{name, m, ref, o.SCF}
}

func chordFixtures(t testing.TB) []chordFixture {
	wat, watPos := scf.WaterGeometry()
	dim, dimPos := scf.DimerGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	return []chordFixture{
		newChordFixture(t, "water", wat, watPos, sigma),
		newChordFixture(t, "dimer", dim, dimPos, sigma),
		newChordFixture(t, "glycine", gly, glyPos, sigma),
	}
}

const displacementStep = 5e-3 // hessian.DefaultStep

// TestChordMatchesFiniteDifference: the closed-form chord matrix
// (I − χ·Γ)⁻¹ that SolveReference hands out is the forward-difference
// (I − ∂F/∂dq)⁻¹ of the charge map it replaced, to 1e-4 of its largest entry —
// the difference is the truncation of the finite differences — on gapped
// water, water dimer, methane and glycine and on the dimer at σ = 0.05, where
// the intraband response and the Fermi-level shift are part of J.
func TestChordMatchesFiniteDifference(t *testing.T) {
	wat, watPos := scf.WaterGeometry()
	dim, dimPos := scf.DimerGeometry()
	met, metPos := scf.MethaneGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	for _, fx := range []chordFixture{
		newChordFixture(t, "water", wat, watPos, sigma),
		newChordFixture(t, "dimer", dim, dimPos, sigma),
		newChordFixture(t, "methane", met, metPos, sigma),
		newChordFixture(t, "glycine", gly, glyPos, sigma),
		newChordFixture(t, "dimer σ=0.05", dim, dimPos, 0.05),
	} {
		want := scf.RefChordMatrix(fx.m, fx.ref, fx.opt)
		if want == nil {
			t.Fatalf("%s: no finite-difference chord matrix", fx.name)
		}
		var scale float64
		for _, x := range fx.opt.Chord.Data {
			scale = math.Max(scale, math.Abs(x))
		}
		d := fx.opt.Chord.MaxAbsDiff(want)
		if !(d <= 1e-4*scale) {
			t.Errorf("%s: closed-form and finite-difference chord matrices differ by %.2g (largest entry %.2g)", fx.name, d, scale)
		}
		t.Logf("%s: max |M − M_fd| %.2g, max |M| %.2g", fx.name, d, scale)
	}
}

// TestChordLoopOnProductionChord: every ±δ displacement of the dimer, glycine
// and the dimer at σ = 0.05, started from the reference charges, converges
// with the chord SolveReference hands out and never falls back to Pulay, in
// at most 1% more summed iterations than with the finite-difference chord.
func TestChordLoopOnProductionChord(t *testing.T) {
	dim, dimPos := scf.DimerGeometry()
	gly, glyPos := scf.GlycineGeometry(t)
	sigma := scf.DefaultOptions().Smearing
	for _, fx := range []chordFixture{
		newChordFixture(t, "dimer", dim, dimPos, sigma),
		newChordFixture(t, "glycine", gly, glyPos, sigma),
		newChordFixture(t, "dimer σ=0.05", dim, dimPos, 0.05),
	} {
		fdOpt := fx.opt
		fdOpt.Chord = scf.RefChordMatrix(fx.m, fx.ref, fx.opt)
		ws := scf.NewWorkspace(fx.m)
		var iters, fdIters int
		for atom := 0; atom < fx.m.NumAtoms(); atom++ {
			for axis := 0; axis < 3; axis++ {
				for _, sign := range []float64{1, -1} {
					md := fx.m.Displaced(atom, axis, sign*displacementStep)
					got, err := ws.Solve(md, fx.opt)
					if err != nil {
						t.Fatalf("%s atom %d axis %d: %v", fx.name, atom, axis, err)
					}
					if got.ChordSteps != got.Iterations-1 {
						t.Errorf("%s atom %d axis %d sign %+g: %d chord steps in %d iterations: the loop fell back to Pulay",
							fx.name, atom, axis, sign, got.ChordSteps, got.Iterations)
					}
					iters += got.Iterations
					fd, err := ws.Solve(md, fdOpt)
					if err != nil {
						t.Fatal(err)
					}
					fdIters += fd.Iterations
				}
			}
		}
		if float64(iters) > 1.01*float64(fdIters) {
			t.Errorf("%s: %d iterations with the closed-form chord, %d with the finite-difference one", fx.name, iters, fdIters)
		}
		t.Logf("%s: %d iterations over %d displacements (finite-difference chord %d)", fx.name, iters, 6*fx.m.NumAtoms(), fdIters)
	}
}

// TestChordLoopMatchesPulayFixedPoint holds the chord-Newton charge loop to
// what a charge loop is for, on every displacement of water, dimer and
// glycine: the returned charges are a fixed point of the charge map, evaluated
// afresh outside the loop, to 10·Tol (the loop stops when its input moves by
// less than Tol and returns the output, so the map's Lipschitz constant — 4 on
// glycine — stands between the two); they and the energy agree with the
// Pulay-converged solve of the same geometry to 10·Tol and 1e-12 Eₕ — two
// paths to one fixed point; no step failed to halve the residual; the dimer's
// median solve takes at most 4 diagonalizations where the Pulay loop takes 8;
// and kernel widths 1 and 4 give the same bits.
func TestChordLoopMatchesPulayFixedPoint(t *testing.T) {
	defer par.SetBudget(0)
	for _, fx := range chordFixtures(t) {
		pulayOpt := fx.opt
		pulayOpt.Chord = nil
		ws, wsPulay := scf.NewWorkspace(fx.m), scf.NewWorkspace(fx.m)
		var chordIters, pulayIters []int
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
					if got.ChordSteps != iters-1 {
						t.Errorf("%s atom %d axis %d: %d chord steps in %d iterations: the loop fell back to Pulay",
							fx.name, atom, axis, got.ChordSteps, iters)
					}
					if r := scf.FixedPointResidual(t, md, fx.opt, dq); !(r < 10*fx.opt.Tol) {
						t.Errorf("%s atom %d axis %d: converged charges miss the fixed point by %g", fx.name, atom, axis, r)
					}
					want, err := wsPulay.Solve(md, pulayOpt)
					if err != nil {
						t.Fatal(err)
					}
					if d := scf.MaxAbsDiff(dq, want.DeltaQ); d > 10*fx.opt.Tol {
						t.Errorf("%s atom %d axis %d: charges differ from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					if d := math.Abs(energy - want.Energy); d > 1e-12 {
						t.Errorf("%s atom %d axis %d: energy differs from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					chordIters, pulayIters = append(chordIters, iters), append(pulayIters, want.Iterations)

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
		sort.Ints(chordIters)
		sort.Ints(pulayIters)
		mc, mp := chordIters[len(chordIters)/2], pulayIters[len(pulayIters)/2]
		t.Logf("%s: median iterations chord %d (max %d), Pulay %d", fx.name, mc, chordIters[len(chordIters)-1], mp)
		if fx.name == "dimer" && mc > 4 {
			t.Errorf("dimer: median displaced solve takes %d iterations, want ≤ 4", mc)
		}
		if mc > mp {
			t.Errorf("%s: chord loop (%d) slower than Pulay (%d)", fx.name, mc, mp)
		}
	}
}

// TestChordFallsBackToPulay: a chord matrix that does not describe the
// geometry at hand — another molecule's, a step three times too long, a
// singular one — costs a fallback, counted, never the
// answer: the loop hands its iterate to the Pulay mixer the first time a step
// fails to halve the residual and converges to the Pulay fixed point. So does
// a small-gap, strongly smeared fragment, whichever way its loop goes.
func TestChordFallsBackToPulay(t *testing.T) {
	wat, watPos := scf.WaterGeometry()
	water := newChordFixture(t, "water", wat, watPos, scf.DefaultOptions().Smearing)
	hcn := newChordFixture(t, "hcn", []constants.Element{constants.H, constants.C, constants.N},
		[]geom.Vec3{geom.V(-1.064, 0, 0), {}, geom.V(1.156, 0, 0)}, scf.DefaultOptions().Smearing)
	md := water.m.Displaced(1, 0, displacementStep)
	pulayOpt := water.opt
	pulayOpt.Chord = nil
	want, err := md.SolveSCF(pulayOpt)
	if err != nil {
		t.Fatal(err)
	}

	tripled := linalg.Identity(3)
	tripled.Scale(3)
	for name, chord := range map[string]*linalg.Matrix{
		"another molecule's": hcn.opt.Chord,
		"3·I":                tripled,
		"singular":           linalg.NewMatrix(3, 3),
	} {
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		opt := water.opt
		opt.Chord = chord
		opt.Obs = obs.NewScope(tr, reg)
		got, err := md.SolveSCF(opt)
		if err != nil {
			t.Fatalf("%s chord matrix: %v", name, err)
		}
		if n := reg.Counter(obs.MetricSCFChordFallbacks).Value(); n != 1 {
			t.Errorf("%s chord matrix: %d fallbacks counted, want 1", name, n)
		}
		if got.ChordSteps >= got.Iterations-1 {
			t.Errorf("%s chord matrix: %d chord steps in %d iterations, want a Pulay tail", name, got.ChordSteps, got.Iterations)
		}
		if d := scf.MaxAbsDiff(got.DeltaQ, want.DeltaQ); d > 10*opt.Tol {
			t.Errorf("%s chord matrix: charges differ from the Pulay solve by %g", name, d)
		}
		if d := math.Abs(got.Energy - want.Energy); d > 1e-12 {
			t.Errorf("%s chord matrix: energy differs from the Pulay solve by %g", name, d)
		}
		var steps int64 = -1
		for _, s := range tr.Snapshot() {
			if s.Name == "scf" {
				for _, a := range s.Args {
					if a.Key == "chord_steps" {
						steps = a.Val
					}
				}
			}
		}
		if steps != int64(got.ChordSteps) {
			t.Errorf("%s chord matrix: scf span carries chord_steps = %d, result %d", name, steps, got.ChordSteps)
		}
	}

	wrong := water.opt
	wrong.Chord = linalg.Identity(4)
	if _, err := md.SolveSCF(wrong); err == nil {
		t.Error("a 4×4 chord matrix for 3 atoms was accepted")
	}

	// The dimer at 25× the default electronic temperature: fractional
	// frontier occupations, the Fermi level moving with the charges.
	dim, dimPos := scf.DimerGeometry()
	hot := newChordFixture(t, "dimer σ=0.05", dim, dimPos, 0.05)
	hotPulay := hot.opt
	hotPulay.Chord = nil
	for atom := 0; atom < hot.m.NumAtoms(); atom++ {
		mdHot := hot.m.Displaced(atom, atom%3, displacementStep)
		got, err := mdHot.SolveSCF(hot.opt)
		if err != nil {
			t.Fatalf("smeared dimer atom %d: %v", atom, err)
		}
		ref, err := mdHot.SolveSCF(hotPulay)
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
