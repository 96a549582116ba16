package dfpt

import (
	"math"
	"testing"

	"qframan/internal/scf"
)

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
		for c := range nr.P1 {
			pp, qp := displaced(c, h)
			pm, qm := displaced(c, -h)
			pp2, qp2 := displaced(c, h/2)
			pm2, qm2 := displaced(c, -h/2)
			wantP, wantQ := richardson(pp, pm, pp2, pm2), richardson(qp, qm, qp2, qm2)
			for i, v := range nr.P1[c].Data {
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
