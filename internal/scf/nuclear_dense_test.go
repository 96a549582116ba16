package scf

import (
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// The dense forms of the nuclear perturbation and of NuclearHessian's
// response term: every coordinate's ∂S/∂R_c and fixed-charge ∂H/∂R_c as n×n
// matrices, its P⁽ᶜ⁾ built from the response's factors, and the Hessian
// column contracted through three n×n GEMMs and the pair weights. They are
// the oracle of the atom-local production code
// (TestNuclearHessianMatchesDenseContraction).

// denseP1 returns P⁽ᶜ⁾ = sym((L·U[c] − R·T)·Rᵀ), T = R_Aᵀ·SR[c] +
// SR[c]ᵀ·R_A, sym(Z) = Z + Zᵀ.
func denseP1(nr *NuclearResponse, c int) *linalg.Matrix {
	n, no := nr.L.Rows, nr.R.Cols
	first, size := nr.Pert.Rows(c / 3)
	ra := nr.R.RowBlock(first, first+size)
	t := linalg.NewMatrix(no, no)
	Sandwich(t, &ra, nr.SR[c], nr.SR[c], &ra, 1, 0, nil)
	lu := linalg.NewMatrix(n, no)
	linalg.Gemm(false, false, -1, nr.R, t, 0, lu, nil)
	linalg.Gemm(false, false, 1, nr.L, nr.U[c], 1, lu, nil)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, lu, nr.R, 0, p1, nil)
	p1.AddTranspose()
	return p1
}

// denseBuild fills s1 with ∂S/∂R_c, w with (∂Γ/∂R_c)·Δq and h1 with
// S⁽ᶜ⁾∘κ + ½S∘(w_A + w_B), all dense.
func denseBuild(p *Perturbation, c int, s1, h1 *linalg.Matrix, w []float64) {
	m := p.m
	atom, ax := c/3, c%3
	funcs := m.Basis.Funcs
	n := len(funcs)
	s1.Zero()
	for mu := m.Basis.FirstOfAtom[atom]; mu < n && funcs[mu].Atom == atom; mu++ {
		for nu := range funcs {
			if funcs[nu].Atom == atom {
				continue
			}
			var v float64
			if mu < nu {
				v = component(m.dS[mu*n+nu], ax)
			} else {
				v = -component(m.dS[nu*n+mu], ax)
			}
			s1.Set(mu, nu, v)
			s1.Set(nu, mu, v)
		}
	}
	clear(w)
	for b := range m.Els {
		if b == atom {
			continue
		}
		g := component(m.gammaDeriv(atom, b), ax)
		w[atom] += g * p.dq[b]
		w[b] += g * p.dq[atom]
	}
	for i, v := range s1.Data {
		h1.Data[i] = v * (p.half[i/n] + p.half[i%n])
	}
	m.addPotential(h1, w)
}

// denseNuclearHessian is NuclearHessian with each response column y built
// densely: e⁽ʸ⁾ = P⁽ʸ⁾∘κ + ½P∘(V⁽ʸ⁾_A + V⁽ʸ⁾_B) − sym(P⁽ʸ⁾·H·P + ½P·H⁽ʸ⁾·P)
// contracted with ∂S/∂R pair by pair, plus the γ-gradient term.
func denseNuclearHessian(m *Model, ground *Result, nr *NuclearResponse) *linalg.Matrix {
	n, na := m.Basis.Size(), m.NumAtoms()
	n3 := 3 * na
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	gemm := func(alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(false, false, alpha, a, b, beta, c, nil)
	}
	p, dq := ground.P, ground.DeltaQ
	v0 := make([]float64, na)
	m.sccPotential(dq, v0)
	hess := linalg.NewMatrix(n3, n3)

	e := sq()
	m.pairWeights(e, ground.W, p, v0)
	m.addOverlapHessian(e, hess)
	for a := 0; a < na; a++ {
		for b := a + 1; b < na; b++ {
			addPairBlocks(hess, a, b, m.gammaHessian(a, b), dq[a]*dq[b])
		}
	}
	m.addRepulsiveHessian(hess)

	pert := m.NuclearPerturbation(ground)
	h, hp := sq(), sq()
	h.CopyFrom(m.H0)
	m.addPotential(h, v0)
	gemm(1, h, p, 0, hp)
	s1, h1, b1, w := sq(), sq(), sq(), sq()
	wv, v1 := make([]float64, na), make([]float64, na)
	grad := make([]geom.Vec3, na)
	for y := 0; y < n3; y++ {
		p1, dq1 := denseP1(nr, y), nr.DQ1[y]
		denseBuild(pert, y, s1, h1, wv)
		m.sccPotential(dq1, v1)
		m.addPotential(h1, v1)
		for a := range v1 {
			v1[a] += wv[a]
		}
		gemm(1, h1, p, 0, b1)
		gemm(1, p1, hp, 0, w)
		gemm(0.5, p, b1, 1, w)
		m.pairWeights(e, w, p1, v0)
		addPairPotential(e, p, v1, m.Basis.Funcs)
		clear(grad)
		m.addOverlapGradient(e, grad)
		m.addGammaGradient(dq1, dq, grad)
		for a, g := range grad {
			hess.Add(3*a, y, g.X)
			hess.Add(3*a+1, y, g.Y)
			hess.Add(3*a+2, y, g.Z)
		}
	}
	return hess
}

// denseOrbitalResponse is OrbitalResponse with Cᵀ·H⁽ᶜ⁾·C and Cᵀ·S⁽ᶜ⁾·C
// taken from the dense n×n perturbation.
func denseOrbitalResponse(m *Model, ground *Result, nr *NuclearResponse) (u []*linalg.Matrix, eps1 [][]float64) {
	n, na := m.Basis.Size(), m.NumAtoms()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	pert := m.NuclearPerturbation(ground)
	s1, h1, t, hm, sm := sq(), sq(), sq(), sq(), sq()
	w, v := make([]float64, na), make([]float64, na)
	c, eps := ground.C, ground.Eps
	mo := func(a, dst *linalg.Matrix) {
		linalg.Gemm(true, false, 1, c, a, 0, t, nil)
		linalg.Gemm(false, false, 1, t, c, 0, dst, nil)
	}
	u, eps1 = make([]*linalg.Matrix, 3*na), make([][]float64, 3*na)
	for y := range u {
		denseBuild(pert, y, s1, h1, w)
		m.sccPotential(nr.DQ1[y], v)
		m.addPotential(h1, v)
		mo(h1, hm)
		mo(s1, sm)
		u[y], eps1[y] = sq(), make([]float64, n)
		for p := 0; p < n; p++ {
			row, hrow, srow := u[y].Row(p), hm.Row(p), sm.Row(p)
			for q := 0; q < n; q++ {
				if q == p {
					row[q] = -0.5 * srow[q]
					eps1[y][p] = hrow[p] - eps[p]*srow[p]
					continue
				}
				row[q] = (hrow[q] - eps[q]*srow[q]) / (eps[q] - eps[p])
			}
		}
	}
	return u, eps1
}
