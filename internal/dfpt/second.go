package dfpt

import (
	"fmt"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// fieldResponse returns the density response of a gapped ground state to the
// field up to second order, which scf.Model.FieldDerivatives turns into the
// dipole and polarizability derivatives, and the workspace it was solved in,
// whose environment keeps χ and I − χ·Γ for the nuclear responses
// (Responses). The first-order responses are Polarizability's in γ mode —
// the SCF's own kernel, whatever opt.Coulomb says. The six second-order ones
// ∂²P/∂F_b∂F_c are one six-column charge solve against the I − χ·Γ the first
// order built, plus one P⁽¹⁾-shaped build each (secondOrder). A fractional
// ground state is an error: it has no second-order response here.
func fieldResponse(m *scf.Model, ground *scf.Result, opt Options) (*Workspace, *scf.FieldResponse, error) {
	if !scf.Gapped(ground.Occ) {
		return nil, nil, fmt.Errorf("dfpt: analytic responses need a gapped ground state")
	}
	opt.Coulomb = GammaCoulomb
	w := new(Workspace)
	resp, err := w.Polarizability(m, ground, opt)
	if err != nil {
		return nil, nil, err
	}
	fr, err := w.env.secondOrder(resp.P1, opt.Obs)
	if err != nil {
		return nil, nil, err
	}
	return w, fr, nil
}

// secondOrder computes the second-order field responses of the gapped ground
// state the environment is seated on, after a γ-mode polarizability that left
// χ, I − χ·Γ, ½S·L and ½S·R, and each direction's Δq⁽ᵇ⁾ and pair block in
// place and returned the first-order p1. In the reference orbitals (P =
// 2·C·R·Cᵀ, R = diag(1 occupied, 0 virtual) at zero field, the field leaves S
// alone) the density stays a projector, R² = R, and commutes with the
// Hamiltonian, [H̃, R] = 0. With U⁽ᵇ⁾ = R⁽ᵇ⁾_vo = ½W∘(Lᵀ·H⁽ᵇ⁾·R) the
// first-order block — the pair block solveGamma left, halved in place — and
// H̃⁽ᵇ⁾ = Cᵀ·H⁽ᵇ⁾·C, differentiating both twice gives
//
//	R⁽ᵇᶜ⁾_oo = −(U⁽ᵇ⁾ᵀ·U⁽ᶜ⁾ + U⁽ᶜ⁾ᵀ·U⁽ᵇ⁾),  R⁽ᵇᶜ⁾_vv = U⁽ᵇ⁾·U⁽ᶜ⁾ᵀ + U⁽ᶜ⁾·U⁽ᵇ⁾ᵀ,
//	R⁽ᵇᶜ⁾_vo = ½W∘(H̃⁽ᵇᶜ⁾_vo + X),  X = H̃⁽ᵇ⁾_vv·U⁽ᶜ⁾ − U⁽ᶜ⁾·H̃⁽ᵇ⁾_oo + (b↔c),
//
// where H⁽ᵇᶜ⁾ = ½S∘(V⁽ᵇᶜ⁾_A + V⁽ᵇᶜ⁾_B) is all the second-order Hamiltonian
// there is (the field term is linear) and V⁽ᵇᶜ⁾ = Γ·Δq⁽ᵇᶜ⁾ depends on the
// answer. The six pairs b ≤ c are one column set of the charge closure
// (closeCharges): each column the pair block W∘X and the charges of the
// oo and vv blocks, and the closure adds H⁽ᵇᶜ⁾'s share to the pair block.
// The potentials of H̃⁽ᵇ⁾_vv and H̃⁽ᵇ⁾_oo enter in pair space too (block).
func (e *cycleEnv) secondOrder(p1 [3]*linalg.Matrix, sc obs.Scope) (*scf.FieldResponse, error) {
	_, span := sc.Begin("dfpt.second", "dfpt")
	defer span.End()
	m, n := e.m, e.n
	l, r := e.Left, e.Right
	nl, nr, na := l.Cols, r.Cols, e.Chi.Rows
	mat := linalg.NewMatrix
	gemm := func(transA, transB bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(transA, transB, alpha, a, b, beta, c)
	}
	const cols = 6 // the pairs b ≤ c
	fr := &scf.FieldResponse{P1: p1}
	dqs := make([]float64, (3+cols)*na) // Δq⁽ᵇ⁾, then Δq⁽ᵇᶜ⁾
	var u, hvv, hoo [3]*linalg.Matrix
	tl, tr, vl, vr := mat(nl, n), mat(nr, n), mat(n, nl), mat(n, nr)
	v := make([]float64, na)
	for b := range p1 {
		fr.DQ1[b] = dqs[b*na : (b+1)*na]
		copy(fr.DQ1[b], e.dq[b])
		for a := range v {
			v[a] = linalg.Dot(m.Gamma.Row(a), e.dq[b])
		}
		u[b] = &e.u1[b]
		u[b].Scale(0.5)
		hvv[b] = e.block(l, e.SL, m.Dip[b], v, tl, vl)
		hoo[b] = e.block(r, e.SR, m.Dip[b], v, tr, vr)
	}
	q := mat(na, cols)
	xs := make([]float64, cols*nl*nr)
	var x [cols]linalg.Matrix
	var src [cols]*linalg.Matrix
	roo, rvv := mat(nr, nr), mat(nl, nl)
	xr, xl := mat(n, nr), mat(n, nl)
	for j, bc := range alphaPairs {
		b, c := bc[0], bc[1]
		gemm(true, false, -1, u[b], u[c], 0, roo)
		gemm(true, false, -1, u[c], u[b], 1, roo)
		gemm(false, true, 1, u[b], u[c], 0, rvv)
		gemm(false, true, 1, u[c], u[b], 1, rvv)
		p2 := mat(n, n)
		gemm(false, false, 1, r, roo, 0, xr)
		gemm(false, true, 2, xr, r, 0, p2)
		gemm(false, false, 1, l, rvv, 0, xl)
		gemm(false, true, 2, xl, l, 1, p2)
		x[j] = linalg.Matrix{Rows: nl, Cols: nr, Data: xs[j*nl*nr : (j+1)*nl*nr]}
		src[j] = &x[j]
		gemm(false, false, 1, hvv[b], u[c], 0, src[j])
		gemm(false, false, -1, u[c], hoo[b], 1, src[j])
		gemm(false, false, 1, hvv[c], u[b], 1, src[j])
		gemm(false, false, -1, u[b], hoo[c], 1, src[j])
		for i, w := range e.W.Data {
			src[j].Data[i] *= w
		}
		for i, a := range e.AtomOf { // the oo and vv blocks' charges
			q.Data[a*cols+j] += 2 * linalg.Dot(p2.Row(i), e.HalfS.Row(i))
		}
		fr.P2[b][c], fr.P2[c][b] = p2, p2
	}
	if err := e.closeCharges(q, src[:], nil); err != nil {
		return nil, fmt.Errorf("second-order response: %w", err)
	}
	lu := mat(n, nr)
	for j, bc := range alphaPairs {
		b, c := bc[0], bc[1]
		p2 := fr.P2[b][c]
		gemm(false, false, 1, l, src[j], 0, lu)
		gemm(false, true, 1, lu, r, 1, p2)
		gemm(false, true, 1, r, lu, 1, p2)
		if !finite(p2.Data) {
			return nil, fmt.Errorf("%w: non-finite second-order response (%d,%d)", ErrDiverged, b, c)
		}
		dq := dqs[(3+j)*na : (4+j)*na]
		for a := range dq {
			dq[a] = q.At(a, j)
		}
		fr.DQ2[b][c], fr.DQ2[c][b] = dq, dq
	}
	return fr, nil
}

// block returns xᵀ·(d + ½S∘(v_A + v_B))·x for the orbitals x, sx = ½S·x and a
// symmetric d: half of xᵀ·d·x plus (V·x)ᵀ·sx, V the diagonal of each
// function's atomic potential, plus its transpose — the potential in pair
// space, the sibling of the closure's Σ_B v_B·K_B. t (cols(x)×n) and vx
// (n×cols(x)) are scratch.
func (e *cycleEnv) block(x, sx, d *linalg.Matrix, v []float64, t, vx *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(x.Cols, x.Cols)
	linalg.Gemm(true, false, 1, x, d, 0, t)
	linalg.Gemm(false, false, 0.5, t, x, 0, out)
	for mu, a := range e.AtomOf {
		row := vx.Row(mu)
		for i, c := range x.Row(mu) {
			row[i] = v[a] * c
		}
	}
	linalg.Gemm(true, false, 1, vx, sx, 1, out)
	out.AddTranspose()
	return out
}
