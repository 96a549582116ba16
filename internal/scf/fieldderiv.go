package scf

import (
	"math"

	"qframan/internal/basis"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// FieldResponse is the density response of a gapped ground state to a
// uniform electric field F (Options.Field) up to second order, at F = 0:
// P1[b] = ∂P/∂F_b and P2[b][c] = ∂²P/∂F_b∂F_c, where P2[b][c] and P2[c][b]
// are one matrix, with the Mulliken charges each was solved with, DQ1[b] and
// DQ2[b][c] (DQ2[c][b] the same slice). dfpt.Responses computes it.
type FieldResponse struct {
	P1  [3]*linalg.Matrix
	P2  [3][3]*linalg.Matrix
	DQ1 [3][]float64
	DQ2 [3][3][]float64
}

// FieldDerivatives returns the nuclear derivatives of the dipole moment and
// the polarizability of a gapped ground state, dMu[b][3A+a] = ∂μ_b/∂R_{A,a}
// and dAlpha[b][c][3A+a] = ∂α_bc/∂R_{A,a} (dAlpha[b][c] and dAlpha[c][b] are
// one slice), from its field response: no displaced solve. They are the
// field derivatives of the analytic gradient g = ∂E/∂R of Forces,
//
//	g = Σ_ij (P_ij·κ_ij − W_ij)·∂S_ij/∂R + Σ_{A<B} Δq_A·Δq_B·∂γ_AB/∂R
//	    + Σ_k F_k·tr(P·∂D^k/∂R) + ∂E_rep/∂R,
//
// κ_ij = ½K(ε_i + ε_j) + ½(V_A + V_B) on a pair of atoms A ≠ B, taken at the
// field-dependent density: μ = Σ_A Z_A·R_A − ∂E/∂F gives ∂μ_b/∂R =
// Z·δ − ∂g/∂F_b and α_bc = −∂²E/∂F_b∂F_c gives ∂α_bc/∂R = −∂²g/∂F_b∂F_c.
// The charges of each order are the response's own (DQ1, DQ2) and its
// potentials Γ times them; the energy-weighted density of a gapped state is
// W = ½·P·H·P at any field, H = H0 + F·D + ½S∘(V_A + V_B), so W⁽ᵇ⁾ and W⁽ᵇᶜ⁾
// follow by the product rule (DESIGN.md §7, "Analytic field derivatives").
// The caller vouches that the ground state is gapped (Gapped): with
// fractional occupations W is not ½·P·H·P and P⁽ᵇᶜ⁾ is not what dfpt builds.
func (m *Model) FieldDerivatives(ground *Result, fr *FieldResponse) (dMu [3][]float64, dAlpha [3][3][]float64) {
	n, na := m.Basis.Size(), m.NumAtoms()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	gemm := func(a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(false, false, 1, a, b, beta, c)
	}
	potential := func(dq []float64) []float64 {
		v := make([]float64, na)
		m.sccPotential(dq, v)
		return v
	}
	p, v0 := ground.P, potential(ground.DeltaQ)
	pop0 := make([]float64, na)
	m.populations(p, pop0)

	// Only the symmetric part of W enters (pairWeights symmetrizes), so with
	// A = H·P, B⁽ᵇ⁾ = H⁽ᵇ⁾·P and A⁽ᵇ⁾ = B⁽ᵇ⁾ + H·P⁽ᵇ⁾ the product rule reads
	// W⁽ᵇ⁾ = sym(P⁽ᵇ⁾·A + ½P·B⁽ᵇ⁾) and
	// W⁽ᵇᶜ⁾ = sym(P⁽ᵇᶜ⁾·A + P⁽ᵇ⁾·A⁽ᶜ⁾ + P⁽ᶜ⁾·B⁽ᵇ⁾ + ½P·V⁽ᵇᶜ⁾·S·P), V⁽ᵇᶜ⁾ the
	// diagonal of each function's potential: ½P·H⁽ᵇᶜ⁾·P = sym(½P·V⁽ᵇᶜ⁾·S·P).
	h, a, sp := sq(), sq(), sq()
	h.CopyFrom(m.H0)
	m.addPotential(h, v0)
	gemm(h, p, 0, a)
	gemm(m.S, p, 0, sp)
	var v1 [3][]float64
	var b1, a1 [3]*linalg.Matrix
	h1 := sq()
	for b, p1 := range fr.P1 {
		v1[b] = potential(fr.DQ1[b])
		b1[b], a1[b] = sq(), sq()
		h1.CopyFrom(m.Dip[b])
		m.addPotential(h1, v1[b])
		gemm(h1, p, 0, b1[b])
		a1[b].CopyFrom(b1[b])
		gemm(h, p1, 1, a1[b])
	}

	dt := m.dipoleDerivTable()
	var dipGrad [4][3][]geom.Vec3 // tr(X·∂D^k/∂R) for X = P, P⁽⁰⁾, P⁽¹⁾, P⁽²⁾
	for k := 0; k < 3; k++ {
		dipGrad[0][k] = m.dipoleGradient(dt, p, pop0, k)
		for c := 0; c < 3; c++ {
			dipGrad[1+c][k] = m.dipoleGradient(dt, fr.P1[c], fr.DQ1[c], k)
		}
	}

	w, e, pv := sq(), sq(), sq()
	grad := make([]geom.Vec3, na)
	for b := 0; b < 3; b++ {
		gemm(fr.P1[b], a, 0, w)
		linalg.Gemm(false, false, 0.5, p, b1[b], 1, w)
		m.pairWeights(e, w, fr.P1[b], v0)
		addPairPotential(e, p, v1[b], m.Basis.Funcs)
		clear(grad)
		m.addOverlapGradient(e, grad)
		m.addGammaGradient(fr.DQ1[b], ground.DeltaQ, grad)
		addVecs(grad, dipGrad[0][b])
		dMu[b] = make([]float64, 3*na)
		for at, g := range grad {
			for ax, x := range [3]float64{g.X, g.Y, g.Z} {
				if ax == b {
					x -= m.Zval[at]
				}
				dMu[b][3*at+ax] = -x
			}
		}
	}
	for b := 0; b < 3; b++ {
		for c := b; c < 3; c++ {
			p2, q2 := fr.P2[b][c], fr.DQ2[b][c]
			v2 := potential(q2)
			for i := range m.Basis.Funcs {
				prow, pvrow := p.Row(i), pv.Row(i)
				for j := range m.Basis.Funcs {
					pvrow[j] = 0.5 * prow[j] * v2[m.Basis.Funcs[j].Atom]
				}
			}
			gemm(p2, a, 0, w)
			gemm(fr.P1[b], a1[c], 1, w)
			gemm(fr.P1[c], b1[b], 1, w)
			gemm(pv, sp, 1, w)
			m.pairWeights(e, w, p2, v0)
			addPairPotential(e, fr.P1[b], v1[c], m.Basis.Funcs)
			addPairPotential(e, fr.P1[c], v1[b], m.Basis.Funcs)
			addPairPotential(e, p, v2, m.Basis.Funcs)
			clear(grad)
			m.addOverlapGradient(e, grad)
			m.addGammaGradient(q2, ground.DeltaQ, grad)
			m.addGammaGradient(fr.DQ1[b], fr.DQ1[c], grad)
			addVecs(grad, dipGrad[1+c][b])
			addVecs(grad, dipGrad[1+b][c])
			d := make([]float64, 3*na)
			for at, g := range grad {
				d[3*at], d[3*at+1], d[3*at+2] = -g.X, -g.Y, -g.Z
			}
			dAlpha[b][c], dAlpha[c][b] = d, d
		}
	}
	return dMu, dAlpha
}

// populations fills out with the Mulliken populations Σ_{μ∈A} (P·S)_μμ of p.
func (m *Model) populations(p *linalg.Matrix, out []float64) {
	clear(out)
	for i := range m.Basis.Funcs {
		out[m.Basis.Funcs[i].Atom] += linalg.Dot(p.Row(i), m.S.Row(i))
	}
}

// addPotential adds the SCC Hamiltonian ½S_ij·(v_A + v_B) of atomic
// potentials v to h.
func (m *Model) addPotential(h *linalg.Matrix, v []float64) {
	funcs := m.Basis.Funcs
	for i := range funcs {
		hrow, srow, vi := h.Row(i), m.S.Row(i), v[funcs[i].Atom]
		for j := range funcs {
			hrow[j] += 0.5 * srow[j] * (vi + v[funcs[j].Atom])
		}
	}
}

// pairWeights sets e_ij = x_ij·κ_ij − ½(w_ij + w_ji), the overlap-derivative
// weight of a density x with energy-weighted density sym(w), with
// κ_ij = ½K(ε_i + ε_j) + ½(v_A + v_B) for the ground state's potentials v.
func (m *Model) pairWeights(e, w, x *linalg.Matrix, v []float64) {
	funcs := m.Basis.Funcs
	n := len(funcs)
	for i := range funcs {
		fi := &funcs[i]
		erow, xrow := e.Row(i), x.Row(i)
		for j := range funcs {
			fj := &funcs[j]
			kappa := 0.5*wolfsbergK*(fi.OnsiteE+fj.OnsiteE) + 0.5*(v[fi.Atom]+v[fj.Atom])
			erow[j] = xrow[j]*kappa - 0.5*(w.Data[i*n+j]+w.Data[j*n+i])
		}
	}
}

// addPairPotential adds ½x_ij·(v_A + v_B) to e.
func addPairPotential(e, x *linalg.Matrix, v []float64, funcs []basis.Func) {
	for i := range funcs {
		erow, xrow, vi := e.Row(i), x.Row(i), v[funcs[i].Atom]
		for j := range funcs {
			erow[j] += 0.5 * xrow[j] * (vi + v[funcs[j].Atom])
		}
	}
}

// addOverlapGradient adds Σ_ij e_ij·∂S_ij/∂R for a symmetric pair weight e:
// the pair sum of Forces, read from the same overlap-derivative table.
func (m *Model) addOverlapGradient(e *linalg.Matrix, grad []geom.Vec3) {
	funcs := m.Basis.Funcs
	n := len(funcs)
	for i := range funcs {
		a, erow := funcs[i].Atom, e.Row(i)
		for j := i + 1; j < n; j++ {
			b := funcs[j].Atom
			if a == b {
				continue
			}
			g := m.dS[i*n+j].Scale(2 * erow[j])
			grad[a] = grad[a].Add(g)
			grad[b] = grad[b].Sub(g)
		}
	}
}

// addGammaGradient adds Σ_{A<B} (x_A·y_B + y_A·x_B)·∂γ_AB/∂R, the derivative
// of Forces' charge-fluctuation term with one of its charge vectors replaced
// by x and the other by y.
func (m *Model) addGammaGradient(x, y []float64, grad []geom.Vec3) {
	na := m.NumAtoms()
	for a := 0; a < na; a++ {
		ua := m.Els[a].HubbardU()
		for b := a + 1; b < na; b++ {
			d := m.Pos[a].Sub(m.Pos[b])
			r := d.Norm()
			c := 0.5 * (1/ua + 1/m.Els[b].HubbardU())
			dg := -1 / math.Pow(r*r+c*c, 1.5)
			g := d.Scale(dg * (x[a]*y[b] + y[a]*x[b]))
			grad[a] = grad[a].Add(g)
			grad[b] = grad[b].Sub(g)
		}
	}
}

// dipoleDerivTable returns basis.DipoleDeriv of every pair i < j on two
// atoms at entry i·n+j.
func (m *Model) dipoleDerivTable() [][3]geom.Vec3 {
	funcs := m.Basis.Funcs
	n := len(funcs)
	t := make([][3]geom.Vec3, n*n)
	for i := range funcs {
		for j := i + 1; j < n; j++ {
			if funcs[i].Atom != funcs[j].Atom {
				t[i*n+j] = basis.DipoleDeriv(&funcs[i], &funcs[j])
			}
		}
	}
	return t
}

// DipoleDerivTraces returns, for each symmetric matrix x of xs,
// tr(x·∂D^k/∂R_{A,a}) at [k][3A+a]: the nuclear derivatives of the dipole
// integrals contracted with x.
func (m *Model) DipoleDerivTraces(xs []*linalg.Matrix) [][3][]float64 {
	dt := m.dipoleDerivTable()
	pop := make([]float64, m.NumAtoms())
	out := make([][3][]float64, len(xs))
	for i, x := range xs {
		m.populations(x, pop)
		for k := 0; k < 3; k++ {
			out[i][k] = make([]float64, 3*len(pop))
			for a, g := range m.dipoleGradient(dt, x, pop, k) {
				out[i][k][3*a], out[i][k][3*a+1], out[i][k][3*a+2] = g.X, g.Y, g.Z
			}
		}
	}
	return out
}

// dipoleGradient returns tr(x·∂D^k/∂R) per atom for a symmetric x with
// Mulliken populations pop. With d = ∂D^k_ij/∂R_A for i on A and j on B,
// ∂D^k_ij/∂R_B = δ_ak·S_ij − d (the operator's origin does not move with the
// atoms), and a same-atom block moves with its atom, δ_ak·S_ij: together
// δ_ak·pop_A plus, per pair i < j, ±x_ij·(2d − δ_ak·S_ij) on A and B.
func (m *Model) dipoleGradient(dt [][3]geom.Vec3, x *linalg.Matrix, pop []float64, k int) []geom.Vec3 {
	funcs := m.Basis.Funcs
	n := len(funcs)
	grad := make([]geom.Vec3, m.NumAtoms())
	var ek [3]float64
	ek[k] = 1
	unit := geom.V(ek[0], ek[1], ek[2])
	for a, q := range pop {
		grad[a] = unit.Scale(q)
	}
	for i := range funcs {
		a, xrow, srow := funcs[i].Atom, x.Row(i), m.S.Row(i)
		for j := i + 1; j < n; j++ {
			b := funcs[j].Atom
			if a == b {
				continue
			}
			g := dt[i*n+j][k].Scale(2).Sub(unit.Scale(srow[j])).Scale(xrow[j])
			grad[a] = grad[a].Add(g)
			grad[b] = grad[b].Sub(g)
		}
	}
	return grad
}

func addVecs(dst, src []geom.Vec3) {
	for i, v := range src {
		dst[i] = dst[i].Add(v)
	}
}
