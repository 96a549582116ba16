package dfpt

import (
	"math"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/scf"
)

// TestSecondOrderMatchesFiniteField: each second-order response ∂²P/∂F_b∂F_c
// is the Richardson-extrapolated central difference (steps h and h/2) along
// F_c of the first-order response ∂P/∂F_b of the field-polarized ground
// state, on the gapped γ-mode fixtures: to 1e-6 relative to the largest
// entry where the occupations are integral, and to ten times their distance
// from 0 and 2 where they are not (glycine's frontier pair is 6.4e-7 off at
// σ = 0.002; the second-order algebra assumes a projector). A fractional
// ground state has none.
func TestSecondOrderMatchesFiniteField(t *testing.T) {
	const h = 2.5e-4
	for _, fx := range gammaFixtures(t) {
		fr, err := new(Workspace).fieldResponse(fx.m, fx.ground, DefaultOptions())
		if !fx.gapped {
			if err == nil {
				t.Errorf("%s: fieldResponse accepted a fractional ground state", fx.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		// firstOrder returns ∂P/∂F_b of the ground state in the field F_c = f.
		firstOrder := func(c int, f float64) [3][]float64 {
			opt := scf.DefaultOptions()
			opt.Tol = 1e-13
			opt.Smearing = fx.ground.Sigma
			var fv [3]float64
			fv[c] = f
			opt.Field = geom.V(fv[0], fv[1], fv[2])
			g, err := fx.m.SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := Polarizability(fx.m, g, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			var out [3][]float64
			for b := range resp.P1 {
				out[b] = append([]float64(nil), resp.P1[b].Data...)
			}
			return out
		}
		var worst, scale float64
		for c := 0; c < 3; c++ {
			p, m := firstOrder(c, h), firstOrder(c, -h)
			p2, m2 := firstOrder(c, h/2), firstOrder(c, -h/2)
			for b := 0; b < 3; b++ {
				for i, v := range fr.P2[b][c].Data {
					d1 := (p[b][i] - m[b][i]) / (2 * h)
					d2 := (p2[b][i] - m2[b][i]) / h
					worst = math.Max(worst, math.Abs(v-(4*d2-d1)/3))
					scale = math.Max(scale, math.Abs(v))
				}
			}
		}
		var dev float64 // the largest distance of an occupation from 0 or 2
		for _, f := range fx.ground.Occ {
			dev = math.Max(dev, math.Min(f, 2-f))
		}
		t.Logf("%s: max |P2 − finite field| %.1e of max |P2| %.2f (occupations %.1e from integral)", fx.name, worst, scale, dev)
		if worst > math.Max(1e-6, 10*dev)*scale {
			t.Errorf("%s: second-order response off the finite field by %.1e (max |P2| %.2f)", fx.name, worst, scale)
		}
	}
}
