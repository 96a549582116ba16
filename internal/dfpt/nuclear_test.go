package dfpt

import (
	"math"
	"runtime"
	"testing"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// perturbedDensity returns dP/dR_c = sym((L·U[c] − R·T)·Rᵀ), T = R_Aᵀ·SR[c]
// + SR[c]ᵀ·R_A, from the response's factors, sym(Z) = Z + Zᵀ.
func perturbedDensity(nr *scf.NuclearResponse, c int) *linalg.Matrix {
	no := nr.R.Cols
	first, size := nr.Pert.Rows(c / 3)
	ra := nr.R.RowBlock(first, first+size)
	t := linalg.NewMatrix(no, no)
	scf.Sandwich(t, &ra, nr.SR[c], nr.SR[c], &ra, 1, 0)
	z := linalg.NewMatrix(nr.L.Rows, no)
	linalg.Gemm(false, false, -1, nr.R, t, 0, z)
	linalg.Gemm(false, false, 1, nr.L, nr.U[c], 1, z)
	p1 := linalg.MatMul(false, true, z, nr.R)
	p1.AddTranspose()
	return p1
}

// TestNuclearHessianResponseMatchesDisplacedGroundStates: the first-order
// nuclear response of each gapped γ-mode fixture — dP/dR_c and dΔq/dR_c for
// every coordinate — is the Richardson-extrapolated central difference (steps
// h and h/2) of the ground states at displaced geometries, to 1e-6 relative to
// the largest entry. Glycine is taken at σ = 0.001: at the production 0.002 its
// frontier occupations are 6.5e-7 from 0 and 2, and the density, which the
// response of the integral occupations' projector leaves that tail out of,
// differs by 25 times that (the Hessian by two times, hessian's
// TestNuclearHessianMatchesRichardson). A fractional ground state has no
// analytic responses.
func TestNuclearHessianResponseMatchesDisplacedGroundStates(t *testing.T) {
	const h = 2e-3
	for _, fx := range gammaFixtures(t) {
		if fx.name == "glycine" {
			if testing.Short() {
				continue
			}
			opt := scf.DefaultOptions()
			opt.Smearing = 0.001
			g, err := fx.m.SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			fx.ground = g
		}
		_, nr, err := Responses(fx.m, fx.ground, DefaultOptions())
		if !fx.gapped {
			if err == nil {
				t.Errorf("%s: Responses accepted a fractional ground state", fx.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		// displaced returns P and Δq of the ground state with coordinate c moved by d.
		displaced := func(c int, d float64) ([]float64, []float64) {
			opt := scf.DefaultOptions()
			opt.Tol = 1e-13
			opt.Smearing = fx.ground.Sigma
			g, err := fx.m.Displaced(c/3, c%3, d).SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			return g.P.Data, g.DeltaQ
		}
		richardson := func(p, m, p2, m2 []float64) []float64 {
			out := make([]float64, len(p))
			for i := range p {
				out[i] = (4*(p2[i]-m2[i])/h - (p[i]-m[i])/(2*h)) / 3
			}
			return out
		}
		var worstP, scaleP, worstQ, scaleQ float64
		for c := range nr.DQ1 {
			pp, qp := displaced(c, h)
			pm, qm := displaced(c, -h)
			pp2, qp2 := displaced(c, h/2)
			pm2, qm2 := displaced(c, -h/2)
			wantP, wantQ := richardson(pp, pm, pp2, pm2), richardson(qp, qm, qp2, qm2)
			for i, v := range perturbedDensity(nr, c).Data {
				worstP = math.Max(worstP, math.Abs(v-wantP[i]))
				scaleP = math.Max(scaleP, math.Abs(v))
			}
			for a, v := range nr.DQ1[c] {
				worstQ = math.Max(worstQ, math.Abs(v-wantQ[a]))
				scaleQ = math.Max(scaleQ, math.Abs(v))
			}
		}
		var dev float64
		for _, f := range fx.ground.Occ {
			dev = math.Max(dev, math.Min(f, 2-f))
		}
		const tol = 1e-6
		t.Logf("%s: dP/dR off by %.1e of %.2f, dΔq/dR by %.1e of %.2f (occupations %.1e from integral)",
			fx.name, worstP, scaleP, worstQ, scaleQ, dev)
		if worstP > tol*scaleP || worstQ > tol*scaleQ {
			t.Errorf("%s: nuclear response off the displaced ground states: P %.1e, Δq %.1e", fx.name, worstP/scaleP, worstQ/scaleQ)
		}
	}
}

// TestNuclearResponseAllocationCeiling: what the nuclear route adds to the
// field response on glycine — the 3N nuclear responses and NuclearHessian —
// allocates fewer bytes than the 3N dense n×n dP/dR_c alone (3N·n²·8), which
// the route kept before its responses were factored. The field response
// itself (fieldResponse: the cycle environment, P⁽¹⁾ and P⁽²⁾) is not
// counted: it allocates more than the bound on its own and is unchanged.
func TestNuclearResponseAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	m, ground := glycineModel(t)
	w := new(Workspace)
	_, err := w.fieldResponse(m, ground, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		nr, err := w.env.nuclear(new(nuclearWork), ground, obs.Scope{})
		if err != nil {
			t.Fatal(err)
		}
		m.NuclearHessian(ground, nr)
	}
	run()
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	n, n3 := m.Basis.Size(), 3*m.NumAtoms()
	got, bound := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(n3*n*n*8)
	t.Logf("glycine: nuclear responses + NuclearHessian allocate %d B, bound %d B", got, bound)
	if got >= bound {
		t.Errorf("glycine: nuclear responses + NuclearHessian allocate %d B, want < %d (3N dense n×n)", got, bound)
	}
}
