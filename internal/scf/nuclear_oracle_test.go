package scf_test

import (
	"math"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/geom"
	"qframan/internal/scf"
)

// denseFixture is a gapped ground state with its nuclear response.
type denseFixture struct {
	name   string
	m      *scf.Model
	ground *scf.Result
	nr     *scf.NuclearResponse
}

func denseFixtures(t *testing.T) []denseFixture {
	var out []denseFixture
	add := func(name string, els []constants.Element, pos []geom.Vec3) {
		m, err := scf.NewModel(els, pos)
		if err != nil {
			t.Fatal(err)
		}
		ground, err := m.SolveSCF(scf.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		_, nr, err := dfpt.Responses(m, ground, dfpt.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, denseFixture{name, m, ground, nr})
	}
	els, pos := scf.WaterGeometry()
	add("water", els, pos)
	els, pos = scf.DimerGeometry()
	add("water dimer", els, pos)
	els, pos = scf.MethaneGeometry()
	add("methane", els, pos)
	els, pos = scf.GlycineGeometry(t)
	add("glycine", els, pos)
	return out
}

// maxAbs returns max|x| over the entries of xs.
func maxAbs(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s = math.Max(s, math.Abs(x))
	}
	return s
}

// TestNuclearHessianMatchesDenseContraction: the atom-local contraction of
// NuclearHessian — factored P⁽ʸ⁾, row-block perturbations, pair-space and
// potential GEMMs — is the dense one it replaced (every coordinate's n×n
// ∂S/∂R and ∂H/∂R, P⁽ʸ⁾ built from the factors, e⁽ʸ⁾ contracted pair by pair)
// to 1e-12 of the largest Hessian entry, on water, the water dimer, methane
// and glycine.
func TestNuclearHessianMatchesDenseContraction(t *testing.T) {
	for _, fx := range denseFixtures(t) {
		got := fx.m.NuclearHessian(fx.ground, fx.nr)
		want := scf.DenseNuclearHessian(fx.m, fx.ground, fx.nr)
		d, scale := got.MaxAbsDiff(want), maxAbs(want.Data)
		t.Logf("%s: off the dense contraction by %.1e of %.2f", fx.name, d, scale)
		if d > 1e-12*scale {
			t.Errorf("%s: Hessian off the dense contraction by %.1e (max %.2f)", fx.name, d, scale)
		}
	}
}

// TestOrbitalResponseMatchesDenseBuild: the orbital and orbital-energy
// derivatives of OrbitalResponse, from atom-local products and the per-atom
// potential matrices, are those of the dense n×n perturbation to 1e-12 of
// their largest entry, on the fixtures with split levels (methane's t2 has
// no canonical derivative).
func TestOrbitalResponseMatchesDenseBuild(t *testing.T) {
	for _, fx := range denseFixtures(t) {
		if !dfpt.SplitLevels(fx.ground) {
			continue
		}
		u, eps1 := fx.m.OrbitalResponse(fx.ground, fx.nr)
		wu, weps1 := scf.DenseOrbitalResponse(fx.m, fx.ground, fx.nr)
		var du, su, de, se float64
		for y := range u {
			du = math.Max(du, u[y].MaxAbsDiff(wu[y]))
			su = math.Max(su, maxAbs(wu[y].Data))
			for p, v := range eps1[y] {
				de = math.Max(de, math.Abs(v-weps1[y][p]))
			}
			se = math.Max(se, maxAbs(weps1[y]))
		}
		t.Logf("%s: U off by %.1e of %.2f, ∂ε by %.1e of %.2f", fx.name, du, su, de, se)
		if du > 1e-12*su || de > 1e-12*se {
			t.Errorf("%s: orbital response off the dense build: U %.1e, ∂ε %.1e", fx.name, du/su, de/se)
		}
	}
}
