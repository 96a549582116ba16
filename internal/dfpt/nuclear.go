package dfpt

import (
	"fmt"
	"math"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// Responses returns everything the analytic route takes from a gapped ground
// state at its reference geometry, solved on one cycle environment: the field
// response up to second order (fieldResponse) and the first-order response to
// the 3N nuclear coordinates (nuclear), which share the ground state's
// I − χ·Γ. Both are responses of the SCF, whose Coulomb kernel is γ in either
// DFPT mode, so opt.Coulomb is not read: grid mode takes the dipole
// derivatives and the Hessian from them, and the orbital derivatives its ∂α
// needs from the nuclear response (GridAlphaDerivatives). A fractional ground
// state is an error.
func Responses(m *scf.Model, ground *scf.Result, opt Options) (*scf.FieldResponse, *scf.NuclearResponse, error) {
	w, fr, err := fieldResponse(m, ground, opt)
	if err != nil {
		return nil, nil, err
	}
	nr, err := w.env.nuclear(ground, opt.Obs)
	if err != nil {
		return nil, nil, err
	}
	return fr, nr, nil
}

// nuclear computes the first-order response of the gapped ground state the
// environment is seated on to each nuclear coordinate c, after a γ-mode
// polarizability that left K, ½S·R, χ and I − χ·Γ in place. The basis moves
// with the atoms, so S⁽ᶜ⁾ ≠ 0 and the reference orbitals C (CᵀSC = I, P =
// 2·C_o·C_oᵀ) respond as C⁽ᶜ⁾ = C·U with U + Uᵀ = −Cᵀ·S⁽ᶜ⁾·C. Taking
// U_oo = −½C_oᵀ·S⁽ᶜ⁾·C_o and differentiating H·C = S·C·ε for the rest,
//
//	P⁽ᶜ⁾ = sym((L·u − R·T)·Rᵀ),  T = Rᵀ·S⁽ᶜ⁾·R,  u = W∘(Lᵀ·(H⁽ᶜ⁾ − S⁽ᶜ⁾·ε)·R),
//
// ε the occupied column's orbital energy and W the field response's pair
// weights (L = C_virt, R = C_occ, sym(Z) = Z + Zᵀ). With H⁽ᶜ⁾ = h1 +
// ½S∘(v_A + v_B) (scf.Perturbation.Build) and v = Γ·Δq⁽ᶜ⁾ the only part that
// depends on the answer, the Mulliken charges Δq⁽ᶜ⁾ of P⁽ᶜ⁾·S + P·S⁽ᶜ⁾ close
// on themselves as the field's do: (I − χ·Γ)·Δq⁽ᶜ⁾ = q₀⁽ᶜ⁾, q₀ the charges at
// v = 0. All 3N right-hand sides are solved in one elimination, then each
// P⁽ᶜ⁾ is built once. No virtual orbitals, a zero pivot and a non-finite
// charge or P⁽ᶜ⁾ are ErrDiverged.
func (e *cycleEnv) nuclear(ground *scf.Result, sc obs.Scope) (*scf.NuclearResponse, error) {
	_, span := sc.Begin("dfpt.nuclear", "dfpt")
	defer span.End()
	m, n, ops := e.m, e.n, e.ops()
	l, r := e.left, e.right
	nl, nr := l.Cols, r.Cols
	if nl == 0 {
		return nil, fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, n, nr)
	}
	na := m.NumAtoms()
	n3, pairs := 3*na, nl*nr
	mat := linalg.NewMatrix
	gemm := func(transA bool, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(transA, false, 1, a, b, beta, c, ops)
	}
	epsOcc := make([]float64, nr)
	for i, k := range e.idx[nl:n] {
		epsOcc[i] = ground.Eps[k]
	}
	pert := m.NuclearPerturbation(ground)
	s1, h1 := mat(n, n), mat(n, n)
	tl, us, tr, t := mat(nl, n), mat(nl, nr), mat(nr, n), mat(nr, nr)
	w := make([]float64, na)
	// u[c] and z[c] = R·T of each coordinate wait for the charges; q holds
	// the right-hand sides q₀, then the solutions, in its columns.
	u, z := make([]*linalg.Matrix, n3), make([]*linalg.Matrix, n3)
	q := mat(na, n3)
	for c := 0; c < n3; c++ {
		pert.Build(c, s1, h1, w)
		u[c], z[c] = mat(nl, nr), mat(n, nr)
		gemm(true, l, h1, 0, tl)
		gemm(false, tl, r, 0, u[c])
		gemm(true, l, s1, 0, tl)
		gemm(false, tl, r, 0, us)
		for a := 0; a < nl; a++ {
			row, srow, wrow := u[c].Row(a), us.Row(a), e.w.Row(a)
			for i := range row {
				row[i] = wrow[i] * (row[i] - srow[i]*epsOcc[i])
			}
		}
		gemm(true, r, s1, 0, tr)
		gemm(false, tr, r, 0, t)
		gemm(false, r, t, 0, z[c])
		for a := 0; a < na; a++ {
			q.Set(a, c, e.chargeMul*linalg.Dot(e.k[a*pairs:(a+1)*pairs], u[c].Data))
		}
		// −2·R·T·Rᵀ has populations −4·Σ_μ (R·T)_μ·(½S·R)_μ; P·S⁽ᶜ⁾ adds
		// Σ_μ P_μ·S⁽ᶜ⁾_μ.
		for mu, a := range e.atomOf {
			q.Add(a, c, linalg.Dot(ground.P.Row(mu), s1.Row(mu))-4*linalg.Dot(z[c].Row(mu), e.sr.Row(mu)))
		}
	}
	e.fac.CopyFrom(e.sys)
	if err := linalg.SolveLinearColumnsInPlace(e.fac, q); err != nil {
		return nil, fmt.Errorf("%w: zero pivot in the nuclear charge system", ErrDiverged)
	}
	for _, v := range q.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite nuclear response charge", ErrDiverged)
		}
	}
	out := &scf.NuclearResponse{P1: make([]*linalg.Matrix, n3), DQ1: make([][]float64, n3)}
	lu := mat(n, nr)
	wk := e.wk[:pairs]
	for c := 0; c < n3; c++ {
		dq := make([]float64, na)
		for a := range dq {
			dq[a] = q.At(a, c)
		}
		copy(e.dq1, dq)
		e.gammaResponsePotential()
		// u += W∘(Σ_B v_B·K_B), the response potential's share.
		clear(wk)
		for b, v := range e.v1 {
			linalg.Axpy(v, e.k[b*pairs:(b+1)*pairs], wk)
		}
		for i, x := range e.w.Data {
			u[c].Data[i] += x * wk[i]
		}
		lu.CopyFrom(z[c])
		linalg.Gemm(false, false, 1, l, u[c], -1, lu, ops)
		p1 := mat(n, n)
		linalg.Gemm(false, true, 1, lu, r, 0, p1, ops)
		d := p1.Data
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				s := d[i*n+j] + d[j*n+i]
				d[i*n+j], d[j*n+i] = s, s
			}
			d[i*n+i] *= 2
		}
		for _, v := range d {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite nuclear response (coordinate %d)", ErrDiverged, c)
			}
		}
		out.P1[c], out.DQ1[c] = p1, dq
	}
	return out, nil
}
