package scf

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// TestGammaHessianMatchesFiniteDifference: ∂²γ_AB/∂R_A² of the Klopman–Ohno
// kernel is the central difference of its gradient ∂γ_AB/∂R_A along R_A, and
// the kernel's dependence on R_A − R_B alone makes ∂²/∂R_A∂R_B its negative.
func TestGammaHessianMatchesFiniteDifference(t *testing.T) {
	const h = 1e-5
	m, err := NewModel(glycineGeometry(t))
	if err != nil {
		t.Fatal(err)
	}
	for a := range m.Els {
		for b := range m.Els {
			if a == b {
				continue
			}
			got := m.gammaHessian(a, b)
			for j := 0; j < 3; j++ {
				for _, moved := range []int{a, b} {
					keep := m.Pos[moved]
					m.Pos[moved] = shifted(keep, j, h)
					plus := components(m.gammaDeriv(a, b))
					m.Pos[moved] = shifted(keep, j, -h)
					minus := components(m.gammaDeriv(a, b))
					m.Pos[moved] = keep
					sign := 1.0
					if moved == b {
						sign = -1
					}
					for i := 0; i < 3; i++ {
						fd := (plus[i] - minus[i]) / (2 * h)
						if math.Abs(sign*got[i][j]-fd) > 1e-9 {
							t.Fatalf("γ_%d%d (%d,%d) moving %d: analytic %v, central difference %v", a, b, i, j, moved, sign*got[i][j], fd)
						}
					}
				}
			}
		}
	}
}

// TestNuclearHessianRepulsiveTermsMatchFiniteDifference: the bonded potential's Hessian
// — bonds and angles in closed form, dihedrals from central differences of
// their closed-form gradient — is the central difference of its gradient on
// glycine, with linear terms of either sign so every f′·∇²q term is exercised.
func TestNuclearHessianRepulsiveTermsMatchFiniteDifference(t *testing.T) {
	const h = 1e-5
	m, err := NewModel(glycineGeometry(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := range m.Bonds {
		m.Bonds[i].C = 0.05 * rng.NormFloat64()
	}
	for i := range m.Angles {
		m.Angles[i].C = 0.05 * rng.NormFloat64()
	}
	for i := range m.Dihedrals {
		m.Dihedrals[i].C = 0.01 * rng.NormFloat64()
	}
	// Off the reference geometry, so the harmonic terms' f′ is not zero either.
	for a := range m.Pos {
		m.Pos[a] = m.Pos[a].Add(geom.V(0.05*rng.NormFloat64(), 0.05*rng.NormFloat64(), 0.05*rng.NormFloat64()))
	}
	na := m.NumAtoms()
	got := linalg.NewMatrix(3*na, 3*na)
	m.addRepulsiveHessian(got)
	grad := func() []geom.Vec3 {
		g := make([]geom.Vec3, na)
		m.addRepulsiveGradient(g)
		return g
	}
	var worst, scale float64
	for b := 0; b < na; b++ {
		for j := 0; j < 3; j++ {
			keep := m.Pos[b]
			m.Pos[b] = shifted(keep, j, h)
			plus := grad()
			m.Pos[b] = shifted(keep, j, -h)
			minus := grad()
			m.Pos[b] = keep
			for a := 0; a < na; a++ {
				d := components(plus[a].Sub(minus[a]).Scale(1 / (2 * h)))
				for i := 0; i < 3; i++ {
					worst = math.Max(worst, math.Abs(got.At(3*a+i, 3*b+j)-d[i]))
					scale = math.Max(scale, math.Abs(d[i]))
				}
			}
		}
	}
	t.Logf("bonded Hessian off the central difference by %.1e of %.2f", worst, scale)
	if worst > 1e-7*scale {
		t.Errorf("bonded Hessian off the central difference by %.1e (max %.2f)", worst, scale)
	}
}
