package scf

import (
	"math"

	"qframan/internal/basis"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// NuclearResponse is the first-order response of a gapped ground state to its
// 3N nuclear coordinates, c = 3A+a for axis a of atom A: P1[c] = dP/dR_c and
// DQ1[c] = dΔq/dR_c, total derivatives — the basis moves with its atoms, so
// they include the overlap-response terms. dfpt.Responses computes it.
type NuclearResponse struct {
	P1  []*linalg.Matrix
	DQ1 [][]float64
}

// Perturbation builds the first-order perturbations of a ground state by its
// nuclear coordinates (Build). It is fixed by the model and the ground state,
// and read-only once made.
type Perturbation struct {
	m     *Model
	dq    []float64      // the ground state's charges
	kappa *linalg.Matrix // κ_ij = ½K(ε_i + ε_j) + ½(V_A + V_B) of Forces
}

// NuclearPerturbation returns the perturbation builder of the ground state.
func (m *Model) NuclearPerturbation(ground *Result) *Perturbation {
	v0 := make([]float64, m.NumAtoms())
	m.sccPotential(ground.DeltaQ, v0)
	funcs := m.Basis.Funcs
	kappa := linalg.NewMatrix(len(funcs), len(funcs))
	for i := range funcs {
		fi, row := &funcs[i], kappa.Row(i)
		for j := range funcs {
			fj := &funcs[j]
			row[j] = 0.5*wolfsbergK*(fi.OnsiteE+fj.OnsiteE) + 0.5*(v0[fi.Atom]+v0[fj.Atom])
		}
	}
	return &Perturbation{m: m, dq: ground.DeltaQ, kappa: kappa}
}

// Build fills s1 with ∂S/∂R_c, w with w = (∂Γ/∂R_c)·Δq and h1 with the part of
// ∂H/∂R_c that holds the charges fixed,
//
//	h1 = S⁽ᶜ⁾∘κ + ½S∘(w_A + w_B),
//
// for the coordinate c = 3A+a. S⁽ᶜ⁾ is zero outside the rows and columns of
// atom A's functions and on their same-atom block. The full perturbation is
// h1 + ½S∘(v_A + v_B) for the response potential v = Γ·dΔq/dR_c.
func (p *Perturbation) Build(c int, s1, h1 *linalg.Matrix, w []float64) {
	m := p.m
	m.overlapResponse(c, s1)
	m.gammaDerivPotential(c, p.dq, w)
	for i, v := range s1.Data {
		h1.Data[i] = v * p.kappa.Data[i]
	}
	m.addPotential(h1, w)
}

// OrbitalResponse returns the first-order response of a gapped ground
// state's canonical orbitals and orbital energies to each nuclear coordinate c,
// from its nuclear response: C⁽ᶜ⁾ = C·u[c] and eps1[c][p] = ∂ε_p/∂R_c. With
// the full perturbation H⁽ᶜ⁾ = h1 + ½S∘(v_A + v_B), v = Γ·DQ1[c] (Build's h1
// plus the response potential), H̃ = Cᵀ·H⁽ᶜ⁾·C and S̃ = Cᵀ·S⁽ᶜ⁾·C,
// differentiating H·C = S·C·ε and CᵀSC = I gives
//
//	u_pq = (H̃ − ε_q·S̃)_pq / (ε_q − ε_p) (p ≠ q),  u_pp = −½S̃_pp,
//	ε⁽ᶜ⁾_p = (H̃ − ε_p·S̃)_pp,
//
// whose occupied×virtual block is the one the nuclear response solved for.
// The canonical choice needs distinct orbital energies within the occupied
// and within the virtual block; the caller vouches for them and for a gapped,
// field-free ground state.
func (m *Model) OrbitalResponse(ground *Result, nr *NuclearResponse) (u []*linalg.Matrix, eps1 [][]float64) {
	n, na := m.Basis.Size(), m.NumAtoms()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	pert := m.NuclearPerturbation(ground)
	s1, h1, t, hm, sm := sq(), sq(), sq(), sq(), sq()
	w, v := make([]float64, na), make([]float64, na)
	c, eps := ground.C, ground.Eps
	mo := func(a, dst *linalg.Matrix) {
		linalg.Gemm(true, false, 1, c, a, 0, t, m.Ops)
		linalg.Gemm(false, false, 1, t, c, 0, dst, m.Ops)
	}
	u, eps1 = make([]*linalg.Matrix, 3*na), make([][]float64, 3*na)
	for y := range u {
		pert.Build(y, s1, h1, w)
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

// overlapResponse fills s1 with ∂S/∂R_c from the model's overlap-derivative
// table: dS of the pair i < j is the derivative along the atom of i, and the
// atom of j sees its negative.
func (m *Model) overlapResponse(c int, s1 *linalg.Matrix) {
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
}

// gammaDerivPotential sets w_A = Σ_B ∂γ_AB/∂R_c·dq_B for the coordinate
// c = 3C+a: only the pairs that contain C move.
func (m *Model) gammaDerivPotential(c int, dq, w []float64) {
	atom, ax := c/3, c%3
	clear(w)
	for b := range m.Els {
		if b == atom {
			continue
		}
		g := component(m.gammaDeriv(atom, b), ax) // ∂γ_CB/∂R_C = −∂γ_CB/∂R_B
		w[atom] += g * dq[b]
		w[b] += g * dq[atom]
	}
}

// gammaDeriv returns ∂γ_ab/∂R_a of the Klopman–Ohno kernel, −d/(r²+c²)^{3/2}
// with d = R_a − R_b: the vector Forces' charge-fluctuation term uses.
func (m *Model) gammaDeriv(a, b int) geom.Vec3 {
	d := m.Pos[a].Sub(m.Pos[b])
	r := d.Norm()
	c := 0.5 * (1/m.Els[a].HubbardU() + 1/m.Els[b].HubbardU())
	return d.Scale(-1 / math.Pow(r*r+c*c, 1.5))
}

// gammaHessian returns ∂²γ_ab/∂R_a² of the Klopman–Ohno kernel
// γ = (r² + c²)^{−1/2}: −I/s^{3/2} + 3·d·dᵀ/s^{5/2} with s = r² + c² and
// d = R_a − R_b. γ depends on d alone, so ∂²/∂R_b² is the same and
// ∂²/∂R_a∂R_b its negative.
func (m *Model) gammaHessian(a, b int) (h [3][3]float64) {
	d := components(m.Pos[a].Sub(m.Pos[b]))
	c := 0.5 * (1/m.Els[a].HubbardU() + 1/m.Els[b].HubbardU())
	s := d[0]*d[0] + d[1]*d[1] + d[2]*d[2] + c*c
	s32 := s * math.Sqrt(s)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			h[i][j] = 3 * d[i] * d[j] / (s32 * s)
		}
		h[i][i] -= 1 / s32
	}
	return h
}

// NuclearHessian returns the Cartesian Hessian ∂²E/∂R_x∂R_y (hartree/bohr²,
// row x, column y, not symmetrized) of a gapped ground state from its nuclear
// response: no displaced solve. Column y is the derivative along R_y of the
// gradient of Forces,
//
//	g = Σ_ij e_ij·∂S_ij/∂R + Σ_{A<B} Δq_A·Δq_B·∂γ_AB/∂R + ∂E_rep/∂R,
//
// e = P∘κ − W, κ_ij = ½K(ε_i + ε_j) + ½(V_A + V_B): the explicit second
// derivatives Σ e_ij·∂²S_ij + Σ Δq_A·Δq_B·∂²γ_AB + ∂²E_rep, the same for every
// column, plus the response terms Σ e⁽ʸ⁾_ij·∂S_ij/∂R and
// Σ (Δq⁽ʸ⁾_A·Δq_B + Δq_A·Δq⁽ʸ⁾_B)·∂γ_AB/∂R with
//
//	e⁽ʸ⁾ = P⁽ʸ⁾∘κ + ½P∘(V⁽ʸ⁾_A + V⁽ʸ⁾_B) − W⁽ʸ⁾,  V⁽ʸ⁾ = Γ·Δq⁽ʸ⁾ + Γ⁽ʸ⁾·Δq.
//
// The energy-weighted density of a gapped state is W = ½·P·H·P at every
// geometry, so with H⁽ʸ⁾ = S⁽ʸ⁾∘κ + ½S∘(V⁽ʸ⁾_A + V⁽ʸ⁾_B) the product rule
// gives W⁽ʸ⁾ = sym(P⁽ʸ⁾·H·P + ½P·H⁽ʸ⁾·P) as in FieldDerivatives (DESIGN.md §7,
// "The Hessian by coupled-perturbed SCC"). The caller vouches that the ground
// state is gapped and field-free (dfpt.Gapped).
func (m *Model) NuclearHessian(ground *Result, nr *NuclearResponse) *linalg.Matrix {
	n, na := m.Basis.Size(), m.NumAtoms()
	n3 := 3 * na
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	gemm := func(alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(false, false, alpha, a, b, beta, c, m.Ops)
	}
	p, dq := ground.P, ground.DeltaQ
	v0 := make([]float64, na)
	m.sccPotential(dq, v0)
	hess := linalg.NewMatrix(n3, n3)

	// The explicit second derivatives.
	e := sq()
	m.pairWeights(e, ground.W, p, v0)
	m.addOverlapHessian(e, hess)
	for a := 0; a < na; a++ {
		for b := a + 1; b < na; b++ {
			addPairBlocks(hess, a, b, m.gammaHessian(a, b), dq[a]*dq[b])
		}
	}
	m.addRepulsiveHessian(hess)

	// The response terms, one column per coordinate.
	pert := m.NuclearPerturbation(ground)
	h, hp := sq(), sq()
	h.CopyFrom(m.H0)
	m.addPotential(h, v0)
	gemm(1, h, p, 0, hp) // H·P
	s1, h1, b1, w := sq(), sq(), sq(), sq()
	wv, v1 := make([]float64, na), make([]float64, na)
	grad := make([]geom.Vec3, na)
	for y := 0; y < n3; y++ {
		p1, dq1 := nr.P1[y], nr.DQ1[y]
		pert.Build(y, s1, h1, wv)
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

// addOverlapHessian adds Σ_ij e_ij·∂²S_ij/∂R∂R for a symmetric pair weight e.
func (m *Model) addOverlapHessian(e, hess *linalg.Matrix) {
	funcs := m.Basis.Funcs
	for i := range funcs {
		a, erow := funcs[i].Atom, e.Row(i)
		for j := i + 1; j < len(funcs); j++ {
			if b := funcs[j].Atom; a != b {
				addPairBlocks(hess, a, b, basis.OverlapHessian(&funcs[i], &funcs[j]), 2*erow[j])
			}
		}
	}
}

// addPairBlocks adds s·t to the (a,a) and (b,b) blocks of hess and −s·t to
// its (a,b) and (b,a) blocks: the second derivative of a term that depends on
// R_a − R_b alone, t its ∂²/∂R_a² (symmetric).
func addPairBlocks(hess *linalg.Matrix, a, b int, t [3][3]float64, s float64) {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := s * t[i][j]
			hess.Add(3*a+i, 3*a+j, v)
			hess.Add(3*b+i, 3*b+j, v)
			hess.Add(3*a+i, 3*b+j, -v)
			hess.Add(3*b+i, 3*a+j, -v)
		}
	}
}

// addRepulsiveHessian adds ∂²E_rep/∂R∂R of the bonded reference potential.
// Each term is f(q) of one internal coordinate q, so its Hessian is
// f″(q)·∇q·∇qᵀ + f′(q)·∇²q: bonds and angles have ∇²q in closed form; a
// dihedral's is the central difference of the closed-form gradient
// dihedralDeltaGrad, symmetrized.
func (m *Model) addRepulsiveHessian(hess *linalg.Matrix) {
	add := func(atoms []int, grad []geom.Vec3, k, fp float64, second [][]([3][3]float64)) {
		for p, a := range atoms {
			gp := components(grad[p])
			for q, b := range atoms {
				gq := components(grad[q])
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						hess.Add(3*a+i, 3*b+j, k*gp[i]*gq[j]+fp*second[p][q][i][j])
					}
				}
			}
		}
	}
	for _, bd := range m.Bonds {
		d := m.Pos[bd.I].Sub(m.Pos[bd.J])
		r := d.Norm()
		u := components(d.Scale(1 / r))
		// ∇²r on atom I: (I − û·ûᵀ)/r; R_J sees it with the pair signs.
		var t [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				t[i][j] = -u[i] * u[j] / r
			}
			t[i][i] += 1 / r
		}
		neg := scaled(t, -1)
		g := d.Scale(1 / r)
		add([]int{bd.I, bd.J}, []geom.Vec3{g, g.Scale(-1)}, bd.K, bd.K*(r-bd.R0)+bd.C,
			[][]([3][3]float64){{t, neg}, {neg, t}})
	}
	for _, an := range m.Angles {
		u := m.Pos[an.I].Sub(m.Pos[an.J])
		w := m.Pos[an.Kk].Sub(m.Pos[an.J])
		ru, rw := u.Norm(), w.Norm()
		uh, wh := u.Scale(1/ru), w.Scale(1/rw)
		cosT := uh.Dot(wh)
		gu := wh.Sub(uh.Scale(cosT)).Scale(1 / ru) // ∂cosθ/∂u
		gw := uh.Sub(wh.Scale(cosT)).Scale(1 / rw) // ∂cosθ/∂w
		ue, we, gue, gwe := components(uh), components(wh), components(gu), components(gw)
		// ∂²cosθ/∂u², ∂²cosθ/∂u∂w and ∂²cosθ/∂w² in u = R_I − R_J, w = R_K − R_J.
		var huu, huw, hww [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				huu[i][j] = -(ue[i]*gue[j]+gue[i]*ue[j])/ru + cosT*ue[i]*ue[j]/(ru*ru)
				hww[i][j] = -(we[i]*gwe[j]+gwe[i]*we[j])/rw + cosT*we[i]*we[j]/(rw*rw)
				huw[i][j] = (-we[i]*we[j] - ue[i]*ue[j] + cosT*ue[i]*we[j]) / (ru * rw)
			}
			huu[i][i] -= cosT / (ru * ru)
			hww[i][i] -= cosT / (rw * rw)
			huw[i][i] += 1 / (ru * rw)
		}
		hwu := transposed(huw)
		hij, hkj := scaled(added(huu, huw), -1), scaled(added(hwu, hww), -1)
		hjj := added(added(huu, huw), added(hwu, hww))
		add([]int{an.I, an.Kk, an.J}, []geom.Vec3{gu, gw, gu.Add(gw).Scale(-1)},
			an.K, an.K*(cosT-an.Cos0)+an.C,
			[][]([3][3]float64){
				{huu, huw, hij},
				{hwu, hww, hkj},
				{transposed(hij), transposed(hkj), hjj},
			})
	}
	const h = 1e-4 // bohr: the dihedral's central-difference step
	for _, t := range m.Dihedrals {
		atoms := []int{t.I, t.J, t.Kk, t.L}
		pos := [4]geom.Vec3{m.Pos[t.I], m.Pos[t.J], m.Pos[t.Kk], m.Pos[t.L]}
		g := dihedralDeltaGrad(pos[0], pos[1], pos[2], pos[3])
		delta := dihedralDelta(pos[0], pos[1], pos[2], pos[3], t.Phi0)
		second := make([][]([3][3]float64), 4)
		for p := range second {
			second[p] = make([]([3][3]float64), 4)
		}
		for q := 0; q < 4; q++ {
			for j := 0; j < 3; j++ {
				plus, minus := pos, pos
				plus[q] = shifted(pos[q], j, h)
				minus[q] = shifted(pos[q], j, -h)
				gp := dihedralDeltaGrad(plus[0], plus[1], plus[2], plus[3])
				gm := dihedralDeltaGrad(minus[0], minus[1], minus[2], minus[3])
				for p := 0; p < 4; p++ {
					d := components(gp[p].Sub(gm[p]).Scale(1 / (2 * h)))
					for i := 0; i < 3; i++ {
						second[p][q][i][j] = d[i]
					}
				}
			}
		}
		for p := 0; p < 4; p++ {
			for q := p; q < 4; q++ {
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						v := 0.5 * (second[p][q][i][j] + second[q][p][j][i])
						second[p][q][i][j], second[q][p][j][i] = v, v
					}
				}
			}
		}
		add(atoms, g[:], t.K, t.K*delta+t.C, second)
	}
}

func component(v geom.Vec3, ax int) float64 {
	switch ax {
	case 0:
		return v.X
	case 1:
		return v.Y
	}
	return v.Z
}

func components(v geom.Vec3) [3]float64 { return [3]float64{v.X, v.Y, v.Z} }

func shifted(v geom.Vec3, ax int, d float64) geom.Vec3 {
	c := components(v)
	c[ax] += d
	return geom.V(c[0], c[1], c[2])
}

func scaled(t [3][3]float64, s float64) (out [3][3]float64) {
	for i := range t {
		for j := range t[i] {
			out[i][j] = s * t[i][j]
		}
	}
	return out
}

func added(a, b [3][3]float64) (out [3][3]float64) {
	for i := range a {
		for j := range a[i] {
			out[i][j] = a[i][j] + b[i][j]
		}
	}
	return out
}

func transposed(t [3][3]float64) (out [3][3]float64) {
	for i := range t {
		for j := range t[i] {
			out[j][i] = t[i][j]
		}
	}
	return out
}
