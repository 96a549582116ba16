package dfpt

import (
	"fmt"
	"math"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// fieldResponse returns the density response of a gapped ground state to the
// field up to second order, which scf.Model.FieldDerivatives turns into the
// dipole and polarizability derivatives, and the workspace it was solved in,
// whose environment keeps χ and I − χ·Γ for the nuclear responses
// (Responses). The first-order responses are Polarizability's in γ mode —
// the SCF's own kernel, whatever opt.Coulomb says. Each of the six
// second-order ones ∂²P/∂F_b∂F_c is one charge solve against the I − χ·Γ the
// first order built, plus one P⁽¹⁾-shaped build (secondOrder). A fractional
// ground state is an error: it has no second-order response here.
func fieldResponse(m *scf.Model, ground *scf.Result, opt Options) (*Workspace, *scf.FieldResponse, error) {
	if !Gapped(ground.Occ) {
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
// χ and I − χ·Γ in place and returned the first-order p1. In the reference
// orbitals (P = 2·C·R·Cᵀ, R = diag(1 occupied, 0 virtual) at zero field, the
// field leaves S alone) the density stays a projector, R² = R, and commutes
// with the Hamiltonian, [H̃, R] = 0. With U⁽ᵇ⁾ = R⁽ᵇ⁾_vo = ½W∘(Lᵀ·H⁽ᵇ⁾·R) the
// first-order block and H̃⁽ᵇ⁾ = Cᵀ·H⁽ᵇ⁾·C, differentiating both twice gives
//
//	R⁽ᵇᶜ⁾_oo = −(U⁽ᵇ⁾ᵀ·U⁽ᶜ⁾ + U⁽ᶜ⁾ᵀ·U⁽ᵇ⁾),  R⁽ᵇᶜ⁾_vv = U⁽ᵇ⁾·U⁽ᶜ⁾ᵀ + U⁽ᶜ⁾·U⁽ᵇ⁾ᵀ,
//	R⁽ᵇᶜ⁾_vo = ½W∘(H̃⁽ᵇᶜ⁾_vo + X),  X = H̃⁽ᵇ⁾_vv·U⁽ᶜ⁾ − U⁽ᶜ⁾·H̃⁽ᵇ⁾_oo + (b↔c),
//
// where H⁽ᵇᶜ⁾ = ½S∘(V⁽ᵇᶜ⁾_A + V⁽ᵇᶜ⁾_B) is all the second-order Hamiltonian
// there is (the field term is linear) and V⁽ᵇᶜ⁾ = Γ·Δq⁽ᵇᶜ⁾ depends on the
// answer. As in solveGamma the charges close on themselves:
// (I − χ·Γ)·Δq⁽ᵇᶜ⁾ = q₀, q₀ the charges of everything but the H⁽ᵇᶜ⁾ term.
func (e *cycleEnv) secondOrder(p1 [3]*linalg.Matrix, sc obs.Scope) (*scf.FieldResponse, error) {
	_, span := sc.Begin("dfpt.second", "dfpt")
	defer span.End()
	m, n, ops := e.m, e.n, e.ops()
	l, r := e.left, e.right
	nl, nr := l.Cols, r.Cols
	pairs := nl * nr
	mat := linalg.NewMatrix
	gemm := func(transA, transB bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(transA, transB, alpha, a, b, beta, c, ops)
	}
	var u, hvv, hoo [3]*linalg.Matrix
	tl, tr := mat(nl, n), mat(nr, n)
	for b, p := range p1 {
		// H⁽ᵇ⁾ from P⁽ᵇ⁾'s own charges: the Δq⁽¹⁾ it was built from, to rounding.
		e.populations(p)
		e.gammaResponsePotential()
		e.h1.CopyFrom(m.Dip[b])
		e.addGammaResponseH1()
		u[b], hvv[b], hoo[b] = mat(nl, nr), mat(nl, nl), mat(nr, nr)
		gemm(true, false, 1, l, e.h1, 0, tl)
		gemm(false, false, 1, tl, r, 0, u[b])
		gemm(false, false, 1, tl, l, 0, hvv[b])
		gemm(true, false, 1, r, e.h1, 0, tr)
		gemm(false, false, 1, tr, r, 0, hoo[b])
		for i, w := range e.w.Data {
			u[b].Data[i] *= 0.5 * w
		}
	}
	fr := &scf.FieldResponse{P1: p1}
	roo, rvv := mat(nr, nr), mat(nl, nl)
	xr, xl := mat(n, nr), mat(n, nl)
	src, lu := mat(nl, nr), mat(n, nr)
	wk := e.wk[:pairs]
	for b := 0; b < 3; b++ {
		for c := b; c < 3; c++ {
			gemm(true, false, -1, u[b], u[c], 0, roo)
			gemm(true, false, -1, u[c], u[b], 1, roo)
			gemm(false, true, 1, u[b], u[c], 0, rvv)
			gemm(false, true, 1, u[c], u[b], 1, rvv)
			p2 := mat(n, n)
			gemm(false, false, 1, r, roo, 0, xr)
			gemm(false, true, 2, xr, r, 0, p2)
			gemm(false, false, 1, l, rvv, 0, xl)
			gemm(false, true, 2, xl, l, 1, p2)
			gemm(false, false, 1, hvv[b], u[c], 0, src)
			gemm(false, false, -1, u[c], hoo[b], 1, src)
			gemm(false, false, 1, hvv[c], u[b], 1, src)
			gemm(false, false, -1, u[b], hoo[c], 1, src)

			e.populations(p2)
			for i, w := range e.w.Data {
				wk[i] = w * src.Data[i]
			}
			for a := range e.dq1 {
				e.dq1[a] += e.chargeMul * linalg.Dot(e.k[a*pairs:(a+1)*pairs], wk)
			}
			e.fac.CopyFrom(e.sys)
			if err := linalg.SolveLinearInPlace(e.fac, e.dq1); err != nil {
				return nil, fmt.Errorf("%w: zero pivot in the second-order charge system", ErrDiverged)
			}
			e.gammaResponsePotential()
			e.h1.Zero()
			e.addGammaResponseH1()
			gemm(true, false, 1, l, e.h1, 0, tl)
			gemm(false, false, 1, tl, r, 1, src)
			for i, w := range e.w.Data {
				src.Data[i] *= w
			}
			gemm(false, false, 1, l, src, 0, lu)
			gemm(false, true, 1, lu, r, 1, p2)
			gemm(false, true, 1, r, lu, 1, p2)
			for _, v := range p2.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("%w: non-finite second-order response (%d,%d)", ErrDiverged, b, c)
				}
			}
			fr.P2[b][c], fr.P2[c][b] = p2, p2
		}
	}
	return fr, nil
}

// populations sets dq1 to the Mulliken populations Σ_{μ∈A} (P·S)_μμ of p.
func (e *cycleEnv) populations(p *linalg.Matrix) {
	clear(e.dq1)
	for i, a := range e.atomOf {
		e.dq1[a] += 2 * linalg.Dot(p.Row(i), e.halfS.Row(i))
	}
}
