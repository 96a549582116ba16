package scf

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
)

// chordFixture is a model with its converged reference state and the chord
// matrix of it, as hessian.SolveReference hands them to the displaced solves.
type chordFixture struct {
	name string
	m    *Model
	ref  *Result
	opt  Options // InitDeltaQ and Chord set
}

func newChordFixture(t testing.TB, name string, els []constants.Element, pos []geom.Vec3, smearing float64) chordFixture {
	t.Helper()
	m, err := NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Smearing = smearing
	ref, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.InitDeltaQ = ref.DeltaQ
	opt.Chord = m.ChordMatrix(ref, opt)
	if opt.Chord == nil {
		t.Fatalf("%s: no chord matrix at the reference", name)
	}
	return chordFixture{name, m, ref, opt}
}

func chordFixtures(t testing.TB) []chordFixture {
	wat, watPos := waterGeometry()
	dim, dimPos := dimerGeometry()
	gly, glyPos := glycineGeometry(t)
	sigma := DefaultOptions().Smearing
	return []chordFixture{
		newChordFixture(t, "water", wat, watPos, sigma),
		newChordFixture(t, "dimer", dim, dimPos, sigma),
		newChordFixture(t, "glycine", gly, glyPos, sigma),
	}
}

// fixedPointResidual evaluates the charge map once at dq and returns
// max|F(dq) − dq|.
func fixedPointResidual(t testing.TB, m *Model, opt Options, dq []float64) float64 {
	t.Helper()
	ws := NewWorkspace(m)
	if err := ws.prepare(m, opt); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(dq))
	if _, _, err := ws.chargeMap(m, opt, dq, out); err != nil {
		t.Fatal(err)
	}
	var r float64
	for a := range dq {
		r = math.Max(r, math.Abs(out[a]-dq[a]))
	}
	return r
}

// refChargeMap is the charge map as it stood before the Cholesky reduction,
// kept as its reference (the cgref pattern): the Hamiltonian of the input
// charges written out, H = H0 + E·D + ½·S_μν·(v_A(μ) + v_A(ν)), Löwdin's
// X = S^{−1/2} from an eigensolve of S, a dense eigensolve of X·H·X, C = X·Y,
// P = C·f·Cᵀ and its Mulliken charges. It returns the charges, the orbital
// energies and P.
func refChargeMap(m *Model, opt Options, dq []float64) (out, eps []float64, p *linalg.Matrix) {
	n, na := m.Basis.Size(), m.NumAtoms()
	h := m.H0.Clone()
	for k, e := range [3]float64{opt.Field.X, opt.Field.Y, opt.Field.Z} {
		h.AddMatrix(m.Dip[k], e)
	}
	v := make([]float64, na)
	m.sccPotential(dq, v)
	funcs := m.Basis.Funcs
	for i := range funcs {
		for j := range funcs {
			h.Add(i, j, 0.5*m.S.At(i, j)*(v[funcs[i].Atom]+v[funcs[j].Atom]))
		}
	}
	lam, u := linalg.EigSym(m.S)
	scaled := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			scaled.Set(i, j, u.At(i, j)/math.Sqrt(lam[j]))
		}
	}
	x := linalg.MatMul(false, true, scaled, u, nil)
	ht := linalg.MatMul(false, false, linalg.MatMul(false, false, x, h, nil), x, nil)
	ht.Symmetrize()
	eps, y := linalg.EigSym(ht)
	c := linalg.MatMul(false, false, x, y, nil)
	occ := make([]float64, n)
	occupations(eps, 2*m.NumOcc(), opt.Smearing, occ)
	p = linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k, f := range occ {
				s += f * c.At(i, k) * c.At(j, k)
			}
			p.Set(i, j, s)
		}
	}
	out = make([]float64, na)
	m.mullikenDeltaQ(p, out)
	return out, eps, p
}

// TestChargeMapMatchesLowdinReference: the charge map on the Cholesky
// reduction — H̃ affine in the atomic potentials, one eigensolve — gives the
// charges, orbital energies and density matrix of the written-out Hamiltonian
// under Löwdin orthogonalization to 1e-12, on water, the water dimer, methane,
// glycine and the dimer at σ = 0.05, with and without an external field, at
// the converged charges and at charges 0.05 e away from them.
func TestChargeMapMatchesLowdinReference(t *testing.T) {
	wat, watPos := waterGeometry()
	dim, dimPos := dimerGeometry()
	met, metPos := methane()
	gly, glyPos := glycineGeometry(t)
	sigma := DefaultOptions().Smearing
	rng := rand.New(rand.NewSource(27))
	for _, fx := range []struct {
		name  string
		els   []constants.Element
		pos   []geom.Vec3
		sigma float64
	}{
		{"water", wat, watPos, sigma}, {"dimer", dim, dimPos, sigma}, {"methane", met, metPos, sigma},
		{"glycine", gly, glyPos, sigma}, {"dimer σ=0.05", dim, dimPos, 0.05},
	} {
		m, err := NewModel(fx.els, fx.pos)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []geom.Vec3{{}, geom.V(0.004, -0.003, 0.002)} {
			opt := DefaultOptions()
			opt.Smearing, opt.Field = fx.sigma, field
			res, err := m.SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			moved := append([]float64(nil), res.DeltaQ...)
			for a := range moved {
				moved[a] += 0.05 * (2*rng.Float64() - 1)
			}
			ws := NewWorkspace(m)
			if err := ws.prepare(m, opt); err != nil {
				t.Fatal(err)
			}
			for _, dq := range [][]float64{res.DeltaQ, moved} {
				out := make([]float64, len(dq))
				if _, _, err := ws.chargeMap(m, opt, dq, out); err != nil {
					t.Fatal(err)
				}
				wantOut, wantEps, wantP := refChargeMap(m, opt, dq)
				dOut, dEps, dP := maxAbsDiff(out, wantOut), maxAbsDiff(ws.eps, wantEps), ws.p.MaxAbsDiff(wantP)
				if dOut > 1e-12 || dEps > 1e-12 || dP > 1e-12 {
					t.Errorf("%s field %v: charges, orbital energies, density differ from the Löwdin reference by %.1e, %.1e, %.1e",
						fx.name, field, dOut, dEps, dP)
				}
			}
		}
	}
}

// TestCoincidentAtomsAreAnError: two atoms on one site make the overlap matrix
// singular. The Cholesky reduction meets a vanishing pivot, and the solve and
// every rung of the smearing ladder fail loudly with the typed near-singular
// error, never a NaN result or a panic.
func TestCoincidentAtomsAreAnError(t *testing.T) {
	wat, watPos := waterGeometry()
	for name, geometry := range map[string]struct {
		els []constants.Element
		pos []geom.Vec3
	}{
		"H₂ on one site":  {[]constants.Element{constants.H, constants.H}, []geom.Vec3{{}, {}}},
		"water on itself": {append(append([]constants.Element(nil), wat...), wat...), append(append([]geom.Vec3(nil), watPos...), watPos...)},
	} {
		m, err := NewModel(geometry.els, geometry.pos)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := m.SolveSCF(DefaultOptions())
		if res != nil || !errors.Is(err, linalg.ErrNotPositiveDefinite) || !strings.Contains(err.Error(), "overlap matrix near-singular") {
			t.Errorf("%s: got %v, %v; want the near-singular overlap error", name, res, err)
		}
		if _, err := m.SolveSCFRobust(DefaultOptions()); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
			t.Errorf("%s: smearing ladder returned %v", name, err)
		}
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

const displacementStep = 5e-3 // hessian.DefaultStep

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
		ws, wsPulay := NewWorkspace(fx.m), NewWorkspace(fx.m)
		var md Model
		var chordIters, pulayIters []int
		for atom := 0; atom < fx.m.NumAtoms(); atom++ {
			for axis := 0; axis < 3; axis++ {
				for _, sign := range []float64{1, -1} {
					fx.m.DisplaceInto(&md, atom, axis, sign*displacementStep)
					par.SetBudget(1)
					got, err := ws.Solve(&md, fx.opt)
					if err != nil {
						t.Fatalf("%s atom %d axis %d: %v", fx.name, atom, axis, err)
					}
					dq, energy, iters := append([]float64(nil), got.DeltaQ...), got.Energy, got.Iterations
					if got.ChordSteps != iters-1 {
						t.Errorf("%s atom %d axis %d: %d chord steps in %d iterations: the loop fell back to Pulay",
							fx.name, atom, axis, got.ChordSteps, iters)
					}
					if r := fixedPointResidual(t, &md, fx.opt, dq); !(r < 10*fx.opt.Tol) {
						t.Errorf("%s atom %d axis %d: converged charges miss the fixed point by %g", fx.name, atom, axis, r)
					}
					want, err := wsPulay.Solve(&md, pulayOpt)
					if err != nil {
						t.Fatal(err)
					}
					if d := maxAbsDiff(dq, want.DeltaQ); d > 10*fx.opt.Tol {
						t.Errorf("%s atom %d axis %d: charges differ from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					if d := math.Abs(energy - want.Energy); d > 1e-12 {
						t.Errorf("%s atom %d axis %d: energy differs from the Pulay solve by %g", fx.name, atom, axis, d)
					}
					chordIters, pulayIters = append(chordIters, iters), append(pulayIters, want.Iterations)

					par.SetBudget(4)
					wide, err := ws.Solve(&md, fx.opt)
					if err != nil {
						t.Fatal(err)
					}
					if !bitEqualFloats(wide.DeltaQ, dq) || math.Float64bits(wide.Energy) != math.Float64bits(energy) ||
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
	wat, watPos := waterGeometry()
	water := newChordFixture(t, "water", wat, watPos, DefaultOptions().Smearing)
	hcn := newChordFixture(t, "hcn", []constants.Element{constants.H, constants.C, constants.N},
		[]geom.Vec3{geom.V(-1.064, 0, 0), {}, geom.V(1.156, 0, 0)}, DefaultOptions().Smearing)
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
		if d := maxAbsDiff(got.DeltaQ, want.DeltaQ); d > 10*opt.Tol {
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
	dim, dimPos := dimerGeometry()
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
		if d := maxAbsDiff(got.DeltaQ, ref.DeltaQ); d > 10*hot.opt.Tol {
			t.Errorf("smeared dimer atom %d: charges differ from the Pulay solve by %g", atom, d)
		}
		if d := math.Abs(got.Energy - ref.Energy); d > 1e-12 {
			t.Errorf("smeared dimer atom %d: energy differs from the Pulay solve by %g", atom, d)
		}
	}
}

// TestChargeLoopIterationCountIsStable: the charges of symmetric water and
// methane move in one dimension, so a six-deep Pulay history is five vectors
// too many — its bordered system is singular and, before the mixer left the
// dependent entries out, iteration counts (5 to 11 on methane) and resets
// followed the last bit of H0. Perturbing random elements of H0 by one ulp now
// changes neither.
func TestChargeLoopIterationCountIsStable(t *testing.T) {
	wat, watPos := waterGeometry()
	met, metPos := methane()
	for _, fx := range []struct {
		name string
		els  []constants.Element
		pos  []geom.Vec3
	}{{"water", wat, watPos}, {"methane", met, metPos}} {
		var want int
		for trial := 0; trial < 30; trial++ {
			m, err := NewModel(fx.els, fx.pos)
			if err != nil {
				t.Fatal(err)
			}
			n := m.H0.Rows
			for k := 0; k < trial%5; k++ { // trial 0 is unperturbed
				i, j := (7*trial+3*k)%n, (5*trial+k)%n
				toward := math.Inf(1 - 2*((trial+k)%2))
				v := math.Nextafter(m.H0.At(i, j), toward)
				m.H0.Set(i, j, v)
				m.H0.Set(j, i, v)
			}
			ws := NewWorkspace(m)
			res, err := ws.Solve(m, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if ws.mixer.Resets() != 0 {
				t.Errorf("%s trial %d: %d mixer resets, want 0", fx.name, trial, ws.mixer.Resets())
			}
			if trial == 0 {
				want = res.Iterations
			} else if res.Iterations != want {
				t.Errorf("%s trial %d: %d iterations under a 1-ulp perturbation of H0, %d without", fx.name, trial, res.Iterations, want)
			}
		}
		t.Logf("%s: %d iterations, 0 resets", fx.name, want)
	}
}
