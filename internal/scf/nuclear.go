package scf

import (
	"math"

	"qframan/internal/basis"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// NuclearResponse is the first-order response of a gapped ground state to its
// 3N nuclear coordinates, c = 3A+a for axis a of atom A, in factored form:
// with L = C_virt and R = C_occ,
//
//	dP/dR_c = sym((L·U[c] − R·T)·Rᵀ),  T = Rᵀ·S⁽ᶜ⁾·R = R_Aᵀ·SR[c] + SR[c]ᵀ·R_A,
//
// sym(Z) = Z + Zᵀ, S⁽ᶜ⁾ = ∂S/∂R_c, U[c] the virtual×occupied rotation, SR[c]
// the n_A×n_occ rows of S⁽ᶜ⁾·R on atom A and R_A those of R; and DQ1[c] =
// dΔq/dR_c. Both are total derivatives — the basis moves with its atoms, so
// they include the overlap-response terms. No n×n or n_occ×n_occ matrix is
// kept per coordinate: the consumers contract the factors (DESIGN.md §7, "The
// Hessian by coupled-perturbed SCC"). Pert is the perturbation the response
// was solved for, which they reuse. dfpt.Responses computes it.
type NuclearResponse struct {
	Pert  *Perturbation
	L, R  *linalg.Matrix
	U, SR []*linalg.Matrix
	DQ1   [][]float64

	u, sr, dq []float64       // the storage U, SR and DQ1 view
	hdr       []linalg.Matrix // U's headers, then SR's
}

// NewNuclearResponse returns a zero response to be filled for the
// perturbation: copies of l and r (the virtual and occupied orbitals), and
// U, SR and DQ1 laid out for every coordinate.
func NewNuclearResponse(p *Perturbation, l, r *linalg.Matrix) *NuclearResponse {
	nr := new(NuclearResponse)
	nr.Seat(p, l, r)
	return nr
}

// Seat is NewNuclearResponse on nr's storage, which it reuses when it has
// room: the entries of U, SR and DQ1 are then stale, every one of them the
// caller's to write.
func (nr *NuclearResponse) Seat(p *Perturbation, l, r *linalg.Matrix) {
	n, na := p.m.Basis.Size(), p.m.NumAtoms()
	n3, nl, no := 3*na, l.Cols, r.Cols
	nr.Pert = p
	linalg.Resize(&nr.L, l.Rows, nl).CopyFrom(l)
	linalg.Resize(&nr.R, r.Rows, no).CopyFrom(r)
	u, sr, dq := linalg.ResizeSlice(&nr.u, n3*nl*no), linalg.ResizeSlice(&nr.sr, 3*n*no), linalg.ResizeSlice(&nr.dq, n3*na)
	hdr := linalg.ResizeSlice(&nr.hdr, 2*n3)
	linalg.ResizeSlice(&nr.U, n3)
	linalg.ResizeSlice(&nr.SR, n3)
	linalg.ResizeSlice(&nr.DQ1, n3)
	for c := 0; c < n3; c++ {
		first, size := p.Rows(c / 3)
		at := (3*first + c%3*size) * no
		hdr[c] = linalg.Matrix{Rows: nl, Cols: no, Data: u[c*nl*no : (c+1)*nl*no]}
		hdr[n3+c] = linalg.Matrix{Rows: size, Cols: no, Data: sr[at : at+size*no]}
		nr.U[c], nr.SR[c], nr.DQ1[c] = &hdr[c], &hdr[n3+c], dq[c*na:(c+1)*na]
	}
}

// Perturbation holds what the first-order perturbations of a ground state by
// its nuclear coordinates are made of: the overlap-derivative table of the
// model, κ_μν = ½K(ε_μ + ε_ν) + ½(V_A + V_B) of Forces and a table of ∂γ. A
// coordinate c = 3A+a moves atom A's basis functions only, so ∂S/∂R_c is zero outside their n_A rows and columns and on
// their same-atom block: with s its n_A×n row block and E_A the injection of
// A's rows, ∂S/∂R_c = E_A·s + sᵀ·E_Aᵀ (Block). The charge-fixed part of
// ∂H/∂R_c is (∂S/∂R_c)∘κ + ½S∘(w_A + w_B) with w = (∂Γ/∂R_c)·Δq
// (GammaPotential); the full perturbation adds ½S∘(v_A + v_B) for the
// response potential v = Γ·dΔq/dR_c. No n×n matrix is built per coordinate.
// It is fixed by the model and the ground state, and read-only once made.
type Perturbation struct {
	m      *Model
	dq, v0 []float64   // the ground state's charges and SCC potentials
	half   []float64   // ½K·ε_μ + ½V_A(μ): κ_μν = half_μ + half_ν
	dGamma []geom.Vec3 // ∂γ_AB/∂R_A at A·N+B, zero for A = B
	maxLen int         // the most basis functions on one atom
}

// NuclearPerturbation returns the perturbation of the ground state.
func (m *Model) NuclearPerturbation(ground *Result) *Perturbation {
	p := new(Perturbation)
	p.Seat(m, ground)
	return p
}

// Seat makes p the perturbation of the ground state, reusing p's storage when
// it has room. p reads the ground state's charges until its next Seat.
func (p *Perturbation) Seat(m *Model, ground *Result) {
	na := m.NumAtoms()
	p.m, p.dq, p.maxLen = m, ground.DeltaQ, 0
	linalg.ResizeSlice(&p.v0, na)
	linalg.ResizeSlice(&p.half, m.Basis.Size())
	linalg.ResizeSlice(&p.dGamma, na*na)
	m.sccPotential(ground.DeltaQ, p.v0)
	for i, f := range m.Basis.Funcs {
		p.half[i] = 0.5*wolfsbergK*f.OnsiteE + 0.5*p.v0[f.Atom]
	}
	for a := 0; a < na; a++ {
		for b := 0; b < na; b++ {
			p.dGamma[a*na+b] = geom.Vec3{}
			if b != a {
				p.dGamma[a*na+b] = m.gammaDeriv(a, b)
			}
		}
		_, size := p.Rows(a)
		p.maxLen = max(p.maxLen, size)
	}
}

// Rows returns the first basis function of atom a and how many it has.
func (p *Perturbation) Rows(a int) (first, size int) {
	fa := p.m.Basis.FirstOfAtom
	first, end := fa[a], p.m.Basis.Size()
	if a+1 < len(fa) {
		end = fa[a+1]
	}
	return first, end - first
}

// MaxRows returns the most basis functions any one atom has: 3·MaxRows() rows
// hold any atom's Block.
func (p *Perturbation) MaxRows() int { return p.maxLen }

// Block fills the first 3n_A rows of s with the row blocks of ∂S/∂R_c for
// the three coordinates c = 3a, 3a+1, 3a+2 of atom a — rows ax·n_A + i hold
// row first+i of axis ax — and the same rows of sk with their product with κ,
// the row blocks of (∂S/∂R_c)∘κ. Both have n columns, zero on a's own.
func (p *Perturbation) Block(a int, s, sk *linalg.Matrix) {
	m := p.m
	n := m.Basis.Size()
	first, size := p.Rows(a)
	for i := 0; i < size; i++ {
		mu := first + i
		hi := p.half[mu]
		for nu := 0; nu < n; nu++ {
			var d geom.Vec3
			switch {
			case nu < first:
				d = m.dS[nu*n+mu].Scale(-1)
			case nu >= first+size:
				d = m.dS[mu*n+nu]
			}
			k := hi + p.half[nu]
			for ax, v := range [3]float64{d.X, d.Y, d.Z} {
				s.Set(ax*size+i, nu, v)
				sk.Set(ax*size+i, nu, v*k)
			}
		}
	}
}

// GammaPotential sets w = (∂Γ/∂R_c)·Δq, w_A = Σ_B ∂γ_AB/∂R_c·Δq_B, for the
// coordinate c = 3C+a: only the pairs that contain C move.
func (p *Perturbation) GammaPotential(c int, w []float64) {
	atom, ax := c/3, c%3
	na := len(w)
	clear(w)
	for b := range w {
		if b == atom {
			continue
		}
		g := component(p.dGamma[atom*na+b], ax) // ∂γ_CB/∂R_C = −∂γ_CB/∂R_B
		w[atom] += g * p.dq[b]
		w[b] += g * p.dq[atom]
	}
}

// Sandwich sets dst = alpha·(lAᵀ·xr + xlᵀ·rA) + beta·dst: the product Lᵀ·X·R
// for X = E_A·x + xᵀ·E_Aᵀ, the symmetric matrix of an n_A×n row block x on
// atom A's functions (Perturbation), from lA and rA, the rows of L and R on
// A, and xr = x·R and xl = x·L. Two GEMMs of inner dimension n_A.
func Sandwich(dst, lA, xr, xl, rA *linalg.Matrix, alpha, beta float64) {
	linalg.Gemm(true, false, alpha, lA, xr, beta, dst)
	linalg.Gemm(true, false, alpha, xl, rA, 1, dst)
}

// OrbitalResponse returns the first-order response of a gapped ground
// state's canonical orbitals and orbital energies to each nuclear coordinate c,
// from its nuclear response: C⁽ᶜ⁾ = C·u[c] and eps1[c][p] = ∂ε_p/∂R_c. With
// the full perturbation H⁽ᶜ⁾ = (∂S/∂R_c)∘κ + ½S∘(V_A + V_B), V = Γ·DQ1[c] +
// (∂Γ/∂R_c)·Δq, H̃ = Cᵀ·H⁽ᶜ⁾·C and S̃ = Cᵀ·S⁽ᶜ⁾·C, differentiating H·C = S·C·ε
// and CᵀSC = I gives
//
//	u_pq = (H̃ − ε_q·S̃)_pq / (ε_q − ε_p) (p ≠ q),  u_pp = −½S̃_pp,
//	ε⁽ᶜ⁾_p = (H̃ − ε_p·S̃)_pp,
//
// whose occupied×virtual block is the one the nuclear response solved for.
// S̃ and the κ part of H̃ are Z + Zᵀ with Z = C_Aᵀ·(s·C) for the row block s
// (Perturbation.Block); the potential part is Σ_B V_B·K_B, K_B = C_Bᵀ·(½S·C)_B
// + its transpose (the orbitals' ½S∘(v_A + v_B) for a unit potential on B),
// built once per atom. The
// canonical choice needs distinct orbital energies within the occupied and
// within the virtual block; the caller vouches for them and for a gapped,
// field-free ground state.
func (m *Model) OrbitalResponse(ground *Result, nr *NuclearResponse) (u []*linalg.Matrix, eps1 [][]float64) {
	pert := nr.Pert
	n, na := m.Basis.Size(), m.NumAtoms()
	mat := linalg.NewMatrix
	c, eps := ground.C, ground.Eps
	sc := mat(n, n)
	linalg.Gemm(false, false, 0.5, m.S, c, 0, sc) // ½S·C
	var cA, xA linalg.Matrix
	k := make([]*linalg.Matrix, na)
	for b := range k {
		first, size := pert.Rows(b)
		cA, xA = c.RowBlock(first, first+size), sc.RowBlock(first, first+size)
		k[b] = mat(n, n)
		linalg.Gemm(true, false, 1, &cA, &xA, 0, k[b])
		k[b].AddTranspose()
	}
	nb := 3 * pert.MaxRows()
	s3, sk3, s3c, sk3c := mat(nb, n), mat(nb, n), mat(nb, n), mat(nb, n)
	hm, sm := mat(n, n), mat(n, n)
	v, vq := make([]float64, na), make([]float64, na)
	var sb, skb, sx, kx linalg.Matrix
	u, eps1 = make([]*linalg.Matrix, 3*na), make([][]float64, 3*na)
	for a := 0; a < na; a++ {
		first, size := pert.Rows(a)
		pert.Block(a, s3, sk3)
		sb, skb = s3.RowBlock(0, 3*size), sk3.RowBlock(0, 3*size)
		sx, kx = s3c.RowBlock(0, 3*size), sk3c.RowBlock(0, 3*size)
		linalg.Gemm(false, false, 1, &sb, c, 0, &sx)
		linalg.Gemm(false, false, 1, &skb, c, 0, &kx)
		cA = c.RowBlock(first, first+size)
		for ax := 0; ax < 3; ax++ {
			y := 3*a + ax
			sx, kx = s3c.RowBlock(ax*size, (ax+1)*size), sk3c.RowBlock(ax*size, (ax+1)*size)
			linalg.Gemm(true, false, 1, &cA, &sx, 0, sm)
			sm.AddTranspose()
			linalg.Gemm(true, false, 1, &cA, &kx, 0, hm)
			hm.AddTranspose()
			pert.GammaPotential(y, v)
			m.sccPotential(nr.DQ1[y], vq)
			for b, vb := range v {
				hm.AddMatrix(k[b], vb+vq[b])
			}
			u[y], eps1[y] = mat(n, n), make([]float64, n)
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
	}
	return u, eps1
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
// gives W⁽ʸ⁾ = sym(P⁽ʸ⁾·H·P + ½P·H⁽ʸ⁾·P) as in FieldDerivatives. The
// response term is contracted without P⁽ʸ⁾ or any n×n matrix per coordinate
// (DESIGN.md §7, "The Hessian by coupled-perturbed SCC"): with the symmetric
// G⁽ˣ⁾ = κ∘S⁽ˣ⁾ − ½(S⁽ˣ⁾·P·H + H·P·S⁽ˣ⁾) that every P⁽ʸ⁾ of e⁽ʸ⁾ meets and
// tr(P⁽ʸ⁾·G) = 2(⟨Lᵀ·G·R, U_y⟩ − ⟨Rᵀ·G·R, T_y⟩),
//
//	H_xy = 2(⟨Lᵀ·G⁽ˣ⁾·R, U_y⟩ − ⟨Rᵀ·G⁽ˣ⁾·R, T_y⟩) + ⟨π⁽ˣ⁾ − σ⁽ˣ⁾, V⁽ʸ⁾⟩
//	       + ⟨Γ⁽ˣ⁾·Δq, Δq⁽ʸ⁾⟩ − ½⟨P·(κ∘S⁽ʸ⁾)·P, S⁽ˣ⁾⟩,
//
// π⁽ˣ⁾ the Mulliken populations of P·S⁽ˣ⁾ and σ⁽ˣ⁾_A = Σ_{μ∈A}
// (P·S⁽ˣ⁾·P·½S)_μμ. G⁽ˣ⁾ is atom-local plus a rank-2n_A term, so both its
// projections come from products with x's row block (Sandwich) and P·H·L,
// P·H·R built once; the first term is then a pair-space dot product with
// U_y and one with SR_y (NuclearResponse), the next two one (3N×2N)·(2N×3N)
// GEMM, the last an n×n_A·n product per column. The caller vouches that the
// ground state is gapped and field-free (Gapped).
func (m *Model) NuclearHessian(ground *Result, nr *NuclearResponse) *linalg.Matrix {
	return new(nuclearWork).hessian(m, ground, nr)
}

// NuclearHessian is Model.NuclearHessian on the workspace's scratch. The
// Hessian is the caller's: it shares no storage with the workspace.
func (ws *Workspace) NuclearHessian(m *Model, ground *Result, nr *NuclearResponse) *linalg.Matrix {
	return ws.der.nuclear.hessian(m, ground, nr)
}

// nuclearWork is NuclearHessian's scratch (derivWork).
type nuclearWork struct {
	e, phl, phr            *linalg.Matrix
	buf                    []float64
	s3, sk, kp, sl, gl, gr *linalg.Matrix
	ux, tx, pot, resp, f   *linalg.Matrix
	grad                   []geom.Vec3
}

func (wk *nuclearWork) hessian(m *Model, ground *Result, nr *NuclearResponse) *linalg.Matrix {
	pert := nr.Pert
	n, na := m.Basis.Size(), m.NumAtoms()
	n3 := 3 * na
	mat := linalg.Resize
	gemm := func(transA bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(transA, false, alpha, a, b, beta, c)
	}
	p, dq, v0 := ground.P, ground.DeltaQ, pert.v0
	l, r := nr.L, nr.R
	nl, no := l.Cols, r.Cols
	hess := linalg.NewMatrix(n3, n3)

	// The explicit second derivatives.
	e := mat(&wk.e, n, n)
	m.pairWeights(e, ground.W, p, v0)
	m.addOverlapHessian(e, hess)
	for a := 0; a < na; a++ {
		for b := a + 1; b < na; b++ {
			addPairBlocks(hess, a, b, m.gammaHessian(a, b), dq[a]*dq[b])
		}
	}
	m.addRepulsiveHessian(hess)

	// P·H·L and P·H·R through H·L and H·R, held where R·(Rᵀ·G⁽ˣ⁾·R) goes
	// later; then ½S·P in e.
	h := e
	h.CopyFrom(m.H0)
	m.addPotential(h, v0)
	phl, phr := mat(&wk.phl, n, nl), mat(&wk.phr, n, no)
	buf := linalg.ResizeSlice(&wk.buf, n*max(nl, no))
	for _, op := range [2][2]*linalg.Matrix{{l, phl}, {r, phr}} {
		hc := linalg.NewMatrixFrom(n, op[0].Cols, buf[:n*op[0].Cols])
		gemm(false, 1, h, op[0], 0, hc)
		gemm(false, 1, p, hc, 0, op[1])
	}
	rt := linalg.NewMatrixFrom(n, no, buf[:n*no])
	sp := e
	gemm(false, 0.5, m.S, p, 0, sp)

	nb := 3 * pert.MaxRows()
	s3, sk, kp := mat(&wk.s3, nb, n), mat(&wk.sk, nb, n), mat(&wk.kp, nb, n)
	sl, gl, gr := mat(&wk.sl, nb, nl), mat(&wk.gl, nb, nl), mat(&wk.gr, nb, no)
	ux, tx := mat(&wk.ux, nl, no), mat(&wk.tx, no, no)
	pot, resp := mat(&wk.pot, n3, 2*na), mat(&wk.resp, 2*na, n3)
	pot.Zero()
	var sA, skA, slA, glA, grA linalg.Matrix
	var lA, rA, phlA, phrA, vl, vgl, vgr linalg.Matrix
	funcs := m.Basis.Funcs
	for a := 0; a < na; a++ {
		first, size := pert.Rows(a)
		rows := 3 * size
		sA, skA = s3.RowBlock(0, rows), sk.RowBlock(0, rows)
		pert.Block(a, &sA, &skA)
		slA, glA, grA = sl.RowBlock(0, rows), gl.RowBlock(0, rows), gr.RowBlock(0, rows)
		gemm(false, 1, &sA, l, 0, &slA)  // s·L; s·R is the response's SR
		gemm(false, 1, &skA, l, 0, &glA) // g = s∘κ − ½s·P·H, times L and R
		gemm(false, -0.5, &sA, phl, 1, &glA)
		gemm(false, 1, &skA, r, 0, &grA)
		gemm(false, -0.5, &sA, phr, 1, &grA)
		lA, rA = l.RowBlock(first, first+size), r.RowBlock(first, first+size)
		phlA, phrA = phl.RowBlock(first, first+size), phr.RowBlock(first, first+size)
		for ax := 0; ax < 3; ax++ {
			x, lo, hi := 3*a+ax, ax*size, (ax+1)*size
			vl, vgl, vgr = sl.RowBlock(lo, hi), gl.RowBlock(lo, hi), gr.RowBlock(lo, hi)
			vr := nr.SR[x]
			// Lᵀ·G⁽ˣ⁾·R and Rᵀ·G⁽ˣ⁾·R; then, with T_y = R_Bᵀ·SR_y + SR_yᵀ·R_B,
			// ⟨Rᵀ·G⁽ˣ⁾·R, T_y⟩ = 2⟨(R·Rᵀ·G⁽ˣ⁾·R)_B, SR_y⟩.
			Sandwich(ux, &lA, &vgr, &vgl, &rA, 1, 0)
			Sandwich(ux, &phlA, vr, &vl, &phrA, -0.5, 1)
			gemm(true, 1, &rA, &vgr, 0, tx) // Rᵀ·G⁽ˣ⁾·R = Z + Zᵀ
			gemm(true, -0.5, &phrA, vr, 1, tx)
			tx.AddTranspose()
			gemm(false, 1, r, tx, 0, rt)
			hrow := hess.Row(x)
			for y, u := range nr.U {
				fy, _ := pert.Rows(y / 3)
				sry := nr.SR[y].Data
				hrow[y] += 2*linalg.Dot(ux.Data, u.Data) - 4*linalg.Dot(rt.Data[fy*no:fy*no+len(sry)], sry)
			}
			// π⁽ˣ⁾, then Γ⁽ˣ⁾·Δq.
			prow := pot.Row(x)
			for i := 0; i < size; i++ {
				pr, s := p.Row(first+i), s3.Row(lo+i)
				for nu := range funcs {
					t := pr[nu] * s[nu]
					prow[a] += t
					prow[funcs[nu].Atom] += t
				}
			}
			pert.GammaPotential(x, prow[na:])
		}
	}
	// σ⁽ˣ⁾_B = ½⟨S⁽ˣ⁾, Q_B⟩ for Q_B = P·(D_B·½S + ½S·D_B)·P = F + Fᵀ, D_B the
	// projector on B's functions and F = (½S·P)_B,:ᵀ·P_B,: — the pair sum of
	// Forces over Q_B gives every x at once.
	f := mat(&wk.f, n, n)
	grad := linalg.ResizeSlice(&wk.grad, na)
	var pB, vk, kpA linalg.Matrix
	for b := 0; b < na; b++ {
		first, size := pert.Rows(b)
		pB, vk = p.RowBlock(first, first+size), sp.RowBlock(first, first+size)
		gemm(true, 1, &vk, &pB, 0, f)
		m.overlapContraction(f, grad)
		for a, g := range grad {
			pot.Add(3*a, b, -0.5*g.X)
			pot.Add(3*a+1, b, -0.5*g.Y)
			pot.Add(3*a+2, b, -0.5*g.Z)
		}
	}
	for y := 0; y < n3; y++ {
		dq1, w := nr.DQ1[y], pot.Row(y)[na:]
		for b := 0; b < na; b++ {
			resp.Set(b, y, linalg.Dot(m.Gamma.Row(b), dq1)+w[b])
			resp.Set(na+b, y, dq1[b])
		}
	}
	gemm(false, 1, pot, resp, 1, hess)

	// −½⟨P·(κ∘S⁽ʸ⁾)·P, S⁽ˣ⁾⟩: P·(κ∘S⁽ʸ⁾)·P = F + Fᵀ with F = P·E_B·k_y·P,
	// k_y y's row block of κ∘S⁽ʸ⁾.
	for b := 0; b < na; b++ {
		first, size := pert.Rows(b)
		rows := 3 * size
		sA, skA, kpA = s3.RowBlock(0, rows), sk.RowBlock(0, rows), kp.RowBlock(0, rows)
		pert.Block(b, &sA, &skA)
		gemm(false, 1, &skA, p, 0, &kpA)
		pB = p.RowBlock(first, first+size)
		for ay := 0; ay < 3; ay++ {
			y := 3*b + ay
			vk = kp.RowBlock(ay*size, (ay+1)*size)
			gemm(true, 1, &pB, &vk, 0, f) // P symmetric: P_B,:ᵀ = P_:,B
			m.overlapContraction(f, grad)
			for a, g := range grad {
				hess.Add(3*a, y, -0.5*g.X)
				hess.Add(3*a+1, y, -0.5*g.Y)
				hess.Add(3*a+2, y, -0.5*g.Z)
			}
		}
	}
	return hess
}

// overlapContraction sets grad to Σ_ij (F + Fᵀ)_ij·∂S_ij/∂R, ⟨F + Fᵀ,
// ∂S/∂R_x⟩ for every coordinate x: the pair sum of Forces (addOverlapGradient)
// over the upper triangle of F + Fᵀ, which it leaves in f.
func (m *Model) overlapContraction(f *linalg.Matrix, grad []geom.Vec3) {
	n, d := f.Rows, f.Data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[i*n+j] += d[j*n+i]
		}
	}
	clear(grad)
	m.addOverlapGradient(f, grad)
}

// addOverlapHessian adds Σ_ij e_ij·∂²S_ij/∂R∂R for a symmetric pair weight e.
// Every function pair of two atoms reads one table (basis.PairTables), and
// their sum enters hess once per atom pair.
func (m *Model) addOverlapHessian(e, hess *linalg.Matrix) {
	funcs, first := m.Basis.Funcs, m.Basis.FirstOfAtom
	end := func(a int) int {
		if a+1 < len(first) {
			return first[a+1]
		}
		return len(funcs)
	}
	for a := range first {
		for b := a + 1; b < len(first); b++ {
			t := basis.PairTables(&funcs[first[a]], &funcs[first[b]])
			var sum [3][3]float64
			for i := first[a]; i < end(a); i++ {
				erow := e.Row(i)
				for j := first[b]; j < end(b); j++ {
					h := basis.OverlapHessianFrom(&t, &funcs[i], &funcs[j])
					for k := range sum {
						for l := range sum[k] {
							sum[k][l] += 2 * erow[j] * h[k][l]
						}
					}
				}
			}
			addPairBlocks(hess, a, b, sum, 1)
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
	add := func(atoms []int, grad []geom.Vec3, k, fp float64, second *[4][4][3][3]float64) {
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
			&[4][4][3][3]float64{{t, neg}, {neg, t}})
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
			&[4][4][3][3]float64{
				{huu, huw, hij},
				{hwu, hww, hkj},
				{transposed(hij), transposed(hkj), hjj},
			})
	}
	const h = 1e-4                 // bohr: the dihedral's central-difference step
	var second [4][4][3][3]float64 // every entry rewritten per dihedral
	for _, t := range m.Dihedrals {
		atoms := []int{t.I, t.J, t.Kk, t.L}
		pos := [4]geom.Vec3{m.Pos[t.I], m.Pos[t.J], m.Pos[t.Kk], m.Pos[t.L]}
		g := dihedralDeltaGrad(pos[0], pos[1], pos[2], pos[3])
		delta := dihedralDelta(pos[0], pos[1], pos[2], pos[3], t.Phi0)
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
		add(atoms, g[:], t.K, t.K*delta+t.C, &second)
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
