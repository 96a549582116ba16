package scf

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

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
	x := linalg.MatMul(false, true, scaled, u)
	ht := linalg.MatMul(false, false, linalg.MatMul(false, false, x, h), x)
	ht.Symmetrize()
	eps, y := linalg.EigSym(ht)
	c := linalg.MatMul(false, false, x, y)
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

// refChordMatrix is M = (I − J)⁻¹ for the Jacobian J = ∂F/∂dq of the charge
// map at dq by forward differences, one evaluation — one diagonalization — per
// atom and each column of the inverse one LU solve: the chord matrix the
// displaced charge loops once took, kept as the reference of the Newton
// step's closed-form (I − χ·Γ)⁻¹. nil for a map that cannot be evaluated or a
// singular I − J.
func refChordMatrix(m *Model, dq []float64, opt Options) *linalg.Matrix {
	const step = 1e-4 // electrons: above rounding, below where the map bends
	ws := NewWorkspace(m)
	if ws.prepare(m, opt) != nil {
		return nil
	}
	na := ws.na
	base := make([]float64, na)
	if _, _, err := ws.chargeMap(m, opt, dq, base); err != nil {
		return nil
	}
	in, out := ws.dq, ws.newDq
	iMinusJ := linalg.NewMatrix(na, na)
	for b := 0; b < na; b++ {
		copy(in, dq)
		in[b] += step
		if _, _, err := ws.chargeMap(m, opt, in, out); err != nil {
			return nil
		}
		for a := 0; a < na; a++ {
			iMinusJ.Set(a, b, -(out[a]-base[a])/step)
		}
		iMinusJ.Add(b, b, 1)
	}
	inv := linalg.NewMatrix(na, na)
	for b := 0; b < na; b++ {
		col := make([]float64, na)
		col[b] = 1
		x, err := linalg.SolveLinear(iMinusJ, col)
		if err != nil {
			return nil
		}
		for a, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil
			}
			inv.Set(a, b, v)
		}
	}
	return inv
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
			if ws.mixer.resets != 0 {
				t.Errorf("%s trial %d: %d mixer resets, want 0", fx.name, trial, ws.mixer.resets)
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
