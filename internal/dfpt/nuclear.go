package dfpt

import (
	"fmt"

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
	// Both responses point into a workspace made for them and dropped here,
	// which nothing else reads: they own their storage.
	return new(Workspace).Responses(m, ground, opt)
}

// Responses is the package function of the same name in the workspace: both
// responses belong to it and are overwritten by its next call.
func (w *Workspace) Responses(m *scf.Model, ground *scf.Result, opt Options) (*scf.FieldResponse, *scf.NuclearResponse, error) {
	fr, err := w.fieldResponse(m, ground, opt)
	if err != nil {
		return nil, nil, err
	}
	nr, err := w.env.nuclear(&w.nuclear, ground, opt.Obs)
	if err != nil {
		return nil, nil, err
	}
	return fr, nr, nil
}

// nuclearWork is the nuclear responses' storage, kept by a Workspace: the
// perturbation and the response nuclear returns, and its scratch.
type nuclearWork struct {
	pert           scf.Perturbation
	nr             scf.NuclearResponse
	eps            []float64
	reps, s3, sk3  *linalg.Matrix
	sr, sl, kr, kl *linalg.Matrix
	mt, rm, q, w   *linalg.Matrix
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
// weights (L = C_virt, R = C_occ, sym(Z) = Z + Zᵀ). With H⁽ᶜ⁾ = S⁽ᶜ⁾∘κ +
// ½S∘(w_A + w_B + v_A + v_B) (scf.Perturbation), w = Γ⁽ᶜ⁾·Δq, and v =
// Γ·Δq⁽ᶜ⁾ the only part that depends on the answer, the Mulliken charges
// Δq⁽ᶜ⁾ of P⁽ᶜ⁾·S + P·S⁽ᶜ⁾ close on themselves as the field's do:
// (I − χ·Γ)·Δq⁽ᶜ⁾ = q₀⁽ᶜ⁾, q₀ the charges at v = 0. S⁽ᶜ⁾ lives in the moved
// atom's n_A rows and columns, so every product with it is two products with
// its row block (scf.Sandwich), the three axes of an atom batched. The 3N
// coordinates are one column set of the charge closure (closeCharges), each
// column its u at w = v = 0, the frozen potential w and the charges of
// P·S⁽ᶜ⁾ − 2·R·T·Rᵀ; the closure adds the potentials' share to u. P⁽ᶜ⁾ is
// never formed: the response keeps u and the moved atom's rows of S⁽ᶜ⁾·R,
// which T is made of (scf.NuclearResponse). No virtual orbitals, a zero pivot
// and a non-finite charge or factor are ErrDiverged.
func (e *cycleEnv) nuclear(nw *nuclearWork, ground *scf.Result, sc obs.Scope) (*scf.NuclearResponse, error) {
	_, span := sc.Begin("dfpt.nuclear", "dfpt")
	defer span.End()
	m, n := e.m, e.n
	l, r := e.Left, e.Right
	nl, nr := l.Cols, r.Cols
	if nl == 0 {
		return nil, fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, n, nr)
	}
	na := m.NumAtoms()
	n3 := 3 * na
	mat := linalg.Resize
	gemm := func(a, b *linalg.Matrix, c *linalg.Matrix) {
		linalg.Gemm(false, false, 1, a, b, 0, c)
	}
	// R·ε, the occupied orbitals scaled by their energies.
	eps, reps := linalg.ResizeSlice(&nw.eps, nr), mat(&nw.reps, r.Rows, nr)
	reps.CopyFrom(r)
	for i, k := range e.Idx[nl:n] {
		eps[i] = ground.Eps[k]
	}
	for mu := 0; mu < n; mu++ {
		row := reps.Row(mu)
		for i, x := range eps {
			row[i] *= x
		}
	}
	pert := &nw.pert
	pert.Seat(m, ground)
	out := &nw.nr
	out.Seat(pert, l, r)
	nb := 3 * pert.MaxRows()
	s3, sk3 := mat(&nw.s3, nb, n), mat(&nw.sk3, nb, n)
	sr, sl, kr, kl := mat(&nw.sr, nb, nr), mat(&nw.sl, nb, nl), mat(&nw.kr, nb, nr), mat(&nw.kl, nb, nl)
	mt, rm := mat(&nw.mt, nr, nr), mat(&nw.rm, n, nr)
	// q holds the charges of P·S⁽ᶜ⁾ − 2·R·T·Rᵀ in its columns, w the frozen
	// potentials in its rows.
	q, w := mat(&nw.q, na, n3), mat(&nw.w, n3, na)
	q.Zero()
	var sA, skA, srA, slA, krA, klA, lA, rA, reA, vs, vr, vl, vkr, vkl linalg.Matrix
	for a := 0; a < na; a++ {
		first, size := pert.Rows(a)
		rows := 3 * size
		sA, skA = s3.RowBlock(0, rows), sk3.RowBlock(0, rows)
		pert.Block(a, &sA, &skA)
		srA, slA, krA, klA = sr.RowBlock(0, rows), sl.RowBlock(0, rows), kr.RowBlock(0, rows), kl.RowBlock(0, rows)
		gemm(&sA, r, &srA)
		gemm(&sA, l, &slA)
		gemm(&skA, r, &krA)
		for i := 0; i < rows; i++ { // s∘κ·R − s·R·ε
			krow, srow := krA.Row(i), srA.Row(i)
			for j, x := range eps {
				krow[j] -= srow[j] * x
			}
		}
		gemm(&skA, l, &klA)
		lA, rA, reA = l.RowBlock(first, first+size), r.RowBlock(first, first+size), reps.RowBlock(first, first+size)
		for ax := 0; ax < 3; ax++ {
			c, lo, hi := 3*a+ax, ax*size, (ax+1)*size
			vs, vr, vl = s3.RowBlock(lo, hi), sr.RowBlock(lo, hi), sl.RowBlock(lo, hi)
			vkr, vkl = kr.RowBlock(lo, hi), kl.RowBlock(lo, hi)
			out.SR[c].CopyFrom(&vr)
			// u = W∘(Lᵀ·(S⁽ᶜ⁾∘κ)·R − (Lᵀ·S⁽ᶜ⁾·R)·ε), the ε term folded into
			// s∘κ·R above and (s·L)ᵀ·(R·ε)_A here.
			u := out.U[c]
			scf.Sandwich(u, &lA, &vkr, &vkl, &rA, 1, 0)
			linalg.Gemm(true, false, -1, &vl, &reA, 1, u)
			for i, x := range e.W.Data {
				u.Data[i] *= x
			}
			pert.GammaPotential(c, w.Row(c))
			// P·S⁽ᶜ⁾ adds Σ_μ∈B (P·S⁽ᶜ⁾)_μμ: the products P_μν·s_μν of the
			// block, on atom a and on the atom of ν.
			for i := 0; i < size; i++ {
				prow, srow := ground.P.Row(first+i), vs.Row(i)
				for nu, b := range e.AtomOf {
					x := prow[nu] * srow[nu]
					q.Add(a, c, x)
					q.Add(b, c, x)
				}
			}
		}
	}
	// −2·R·T·Rᵀ has the populations −4·Σ_μ∈B (R·T)_μ·(½S·R)_μ = −4⟨T, M_B⟩,
	// M_B = R_Bᵀ·(½S·R)_B; with T = R_Aᵀ·SR + SRᵀ·R_A that is
	// −4⟨SR, (R·(M_B + M_Bᵀ))_A⟩.
	var rB, srB linalg.Matrix
	for b := 0; b < na; b++ {
		first, size := pert.Rows(b)
		rB, srB = r.RowBlock(first, first+size), e.SR.RowBlock(first, first+size)
		linalg.Gemm(true, false, 1, &rB, &srB, 0, mt)
		mt.AddTranspose()
		gemm(r, mt, rm)
		for c, srC := range out.SR {
			fa, _ := pert.Rows(c / 3)
			q.Add(b, c, -4*linalg.Dot(srC.Data, rm.Data[fa*nr:fa*nr+len(srC.Data)]))
		}
	}
	if err := e.closeCharges(q, out.U, w); err != nil {
		return nil, fmt.Errorf("nuclear response: %w", err)
	}
	for c := 0; c < n3; c++ {
		dq := out.DQ1[c]
		for a := range dq {
			dq[a] = q.At(a, c)
		}
		if !finite(out.U[c].Data) || !finite(out.SR[c].Data) {
			return nil, fmt.Errorf("%w: non-finite nuclear response (coordinate %d)", ErrDiverged, c)
		}
	}
	return out, nil
}
