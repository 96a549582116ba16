package dfpt

import (
	"fmt"
	"math"

	"qframan/internal/basis"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// alphaPairs lists the (b, c) of the six polarizability components grid ∂α
// computes, α_bc = ∂μ_b/∂F_c with b ≤ c, in the order of
// hessian.AlphaComponents — also the column order of the second-order
// responses' charge closure (secondOrder).
var alphaPairs = [6][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 2}}

// hessIndex maps an axis pair to its slot in batchData.hx: xx, yy, zz, xy,
// xz, yz.
var hessIndex = [3][3]int{{0, 3, 4}, {3, 1, 5}, {4, 5, 2}}

// splitTol is how close (hartree) two orbital energies of one block may lie
// before SplitLevels calls them degenerate.
const splitTol = 1e-5

// SplitLevels reports whether no two orbital energies of the ground state lie
// within splitTol of each other inside the occupied block or inside the
// virtual block: the ground states whose canonical orbitals have a derivative
// (scf.Model.OrbitalResponse), which grid mode's ∂α is taken from
// (GridAlphaDerivatives). Degenerate levels — methane's t2 — do not.
func SplitLevels(g *scf.Result) bool {
	for p := 1; p < len(g.Eps); p++ {
		if (g.Occ[p] > scf.OccTol) == (g.Occ[p-1] > scf.OccTol) && math.Abs(g.Eps[p]-g.Eps[p-1]) < splitTol {
			return false
		}
	}
	return true
}

// gridDeriv is what the grid ∂α keeps of the α solve it follows (solveGrid
// fills m and x) and the adjoint data it builds from them.
type gridDeriv struct {
	m [3]*linalg.Matrix // M_d of each field direction
	x [3][]float64      // the pair solution x_d of each direction

	lam [6][]float64      // Λ_k = W∘λ_k, λ_k = A_cᵀ⁻¹·g_b for component k = (b, c)
	vx  [3][]float64      // V_x = Σ_q x_q·v_q of each direction, on the grid
	gt  [6][]float64      // T_k = Σ_q Λ_q·τ^c_q on the grid, then Gᵀ·T_k
	phi [6]*linalg.Matrix // Φ_k (n×n, orbital × orbital)
	e   [6][]float64      // E_k at 3f+d: basis function f moved along d

	// The operands of the batch in flight: A_k and B_k (points × n, views
	// over abuf and bbuf) and their products with C_bᵀ.
	a, b       [6]*linalg.Matrix
	abuf, bbuf [6][]float64
	abar, bbar *linalg.Matrix
	cur        *batchData
}

// GridAlphaDerivatives returns grid mode's polarizability derivatives,
// dAlpha[b][c][3A+a] = ∂α_bc/∂R_{A,a} for b ≤ c (the slices with b > c are
// nil), α_bc = ∂μ_b/∂F_c the grid response Polarizability computes, of a
// gapped, field-free ground state with split levels (SplitLevels): one α solve
// at the reference geometry and the adjoint of its pair-space system, no
// displaced solve (DESIGN.md §7, "Grid ∂α by the adjoint"). nr is the ground
// state's nuclear response (Responses), from which the orbital and
// orbital-energy derivatives come (scf.Model.OrbitalResponse). The grid
// follows the atoms, as grid.Cover places it: the derivative on the frozen
// grid is corrected by the origin's own motion (originShares).
func GridAlphaDerivatives(m *scf.Model, ground *scf.Result, nr *scf.NuclearResponse, opt Options) ([3][3][]float64, error) {
	env, err := newGridEnv(m, opt)
	if err != nil {
		return [3][3][]float64{}, err
	}
	da, err := frozenGridAlphaDerivatives(m, ground, nr, opt, env)
	if err != nil {
		return [3][3][]float64{}, err
	}
	s := originShares(m.Pos)
	for _, bc := range alphaPairs {
		d := da[bc[0]][bc[1]]
		for ax := 0; ax < 3; ax++ {
			var sum float64
			for i := ax; i < len(d); i += 3 {
				sum += d[i]
			}
			for i := ax; i < len(d); i += 3 {
				d[i] -= s[i] * sum
			}
		}
	}
	return da, nil
}

// originShares returns s[3a+d] = ∂O_d/∂R_{a,d} for the origin O of the grid
// that grid.Cover lays over pos, O_d = min_a R_{a,d} − margin: 1 for the
// unique lowest atom along d, ½ for each atom tied for lowest — the central
// difference a displacement takes across the kink — and 0 for the rest.
// Moving the origin by t is moving every atom by −t on a fixed grid (α does
// not change when both move: LᵀSR = 0 keeps g, and everything else is
// relative), so ∂α/∂R_{a,d} = ∂α_frozen/∂R_{a,d} − s·Σ_b ∂α_frozen/∂R_{b,d}.
// A change of the grid's point count is not differentiated.
func originShares(pos []geom.Vec3) []float64 {
	s := make([]float64, 3*len(pos))
	for d := 0; d < 3; d++ {
		lo, ties := math.Inf(1), 0
		for _, p := range pos {
			switch v := coord(p, d); {
			case v < lo:
				lo, ties = v, 1
			case v == lo:
				ties++
			}
		}
		share := 1.0
		if ties > 1 {
			share = 0.5
		}
		for a, p := range pos {
			if coord(p, d) == lo {
				s[3*a+d] = share
			}
		}
	}
	return s
}

func coord(p geom.Vec3, d int) float64 {
	switch d {
	case 0:
		return p.X
	case 1:
		return p.Y
	}
	return p.Z
}

// frozenGridAlphaDerivatives is GridAlphaDerivatives on the grid of env, held
// fixed while the atoms move.
func frozenGridAlphaDerivatives(m *scf.Model, ground *scf.Result, nr *scf.NuclearResponse, opt Options, env *gridEnv) ([3][3][]float64, error) {
	if !scf.Gapped(ground.Occ) || !SplitLevels(ground) {
		return [3][3][]float64{}, fmt.Errorf("dfpt: grid ∂α needs a gapped ground state with split levels")
	}
	sc, span := opt.Obs.Begin("dfpt.alpha_deriv", "dfpt")
	defer span.End()
	opt.Obs = sc
	env.tabulateSecond(m.Basis)
	env.deriv = new(gridDeriv)
	var w Workspace
	if _, err := w.polarizability(m, ground, opt, env); err != nil {
		return [3][3][]float64{}, err
	}
	return w.env.alphaDerivatives(ground, nr)
}

// tabulateSecond adds the basis functions' second derivatives on every
// batch's points, which the grid ∂α needs for the moved atom's ∂_c∂_dX.
func (e *gridEnv) tabulateSecond(set *basis.Set) {
	par.For("grid_tabulate", len(e.batches), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			size := len(b.indices) * len(b.funcs)
			slab := make([]float64, len(b.hx)*size)
			for s := range b.hx {
				b.hx[s] = linalg.NewMatrixFrom(len(b.indices), len(b.funcs), slab[s*size:(s+1)*size])
			}
			for p, idx := range b.indices {
				pt := e.g.Point(idx)
				for c, fi := range b.funcs {
					h := set.Funcs[fi].HessAt(pt)
					for i := 0; i < 3; i++ {
						for j := i; j < 3; j++ {
							b.hx[hessIndex[i][j]].Set(p, c, h[i][j])
						}
					}
				}
			}
		}
	})
}

// alphaDerivatives differentiates the α solve the environment just ran
// (DESIGN.md §7). With g_b the pair entries of Cᵀ·D_b·C, A_c = I −
// 2·diag(W)·M_c, A_c·x_c = W∘g_c and α_bc = −2·g_bᵀ·x_c, the adjoint
// λ = A_c⁻ᵀ·g_b gives
//
//	∂α_bc = −2·[∂g_bᵀ·x_c + λᵀ·(∂W∘g_c + W∘∂g_c + 2·diag(∂W)·M_c·x_c)
//	          + 2·λᵀ·diag(W)·∂M_c·x_c].
//
// Every term is linear in what a coordinate y changes — the orbitals
// C⁽ʸ⁾ = C·U, the orbital energies ε⁽ʸ⁾, the dipole integrals ∂D and the
// moved atom's basis functions on the grid (−∂_dX, −∂_c∂_dX) — so each
// component contracts them against coefficients built once: Ω_k for U, β_k
// for ε⁽ʸ⁾, two symmetric AO matrices for ∂D and, from one pass over the grid
// with Gᵀ·T_λ (one transposed Poisson solve per component), Φ_k and E_k for the
// grid term w·Σ_r [∂T_λ·V_x + Gᵀ(T_λ)·∂ρ_x]. The derivatives are on the
// environment's grid, held fixed. A zero pivot or a non-finite adjoint is
// ErrDiverged.
func (e *cycleEnv) alphaDerivatives(ground *scf.Result, nr *scf.NuclearResponse) ([3][3][]float64, error) {
	var out [3][3][]float64
	g, d := e.grid, e.grid.deriv
	m, n, ops := e.m, e.n, e.ops()
	np, npts := len(e.pairL), e.grid.g.NumPoints()
	mat := linalg.NewMatrix
	wq := make([]float64, np)
	for q, at := range e.pairAt {
		wq[q] = e.W.Data[at]
	}
	// Dm_b = Cᵀ·D_b·C and its pair entries g_b.
	var dm [3]*linalg.Matrix
	var gv, mx [3][]float64
	t := mat(n, n)
	for b := range dm {
		dm[b] = mat(n, n)
		linalg.Gemm(true, false, 1, e.c, m.Dip[b], 0, t, ops)
		linalg.Gemm(false, false, 1, t, e.c, 0, dm[b], ops)
		gv[b] = make([]float64, np)
		for q, l := range e.pairL {
			gv[b][q] = dm[b].At(l, e.pairR[q])
		}
	}
	// Per direction c: M_c·x_c, V_x on the grid, and the adjoints of the
	// components (b, c), b ≤ c, in one elimination of A_cᵀ.
	var lam [6][]float64
	for c := 0; c < 3; c++ {
		x := d.x[c]
		mx[c] = make([]float64, np)
		for q := range mx[c] {
			mx[c][q] = linalg.Dot(d.m[c].Row(q), x)
		}
		d.vx[c] = make([]float64, npts)
		for q, xq := range x {
			linalg.Axpy(xq, g.v[q*npts:(q+1)*npts], d.vx[c])
		}
		at, rhs := mat(np, np), mat(np, c+1)
		for i := 0; i < np; i++ {
			row := at.Row(i)
			for j := range row {
				row[j] = -2 * wq[j] * d.m[c].At(j, i)
			}
			row[i]++
			for b := 0; b <= c; b++ {
				rhs.Set(i, b, gv[b][i])
			}
		}
		if err := linalg.SolveLinearColumnsInPlace(at, rhs); err != nil {
			return out, fmt.Errorf("%w: zero pivot in the adjoint pair system", ErrDiverged)
		}
		for k, bc := range alphaPairs {
			if bc[1] != c {
				continue
			}
			lam[k], d.lam[k] = make([]float64, np), make([]float64, np)
			for q := range lam[k] {
				v := rhs.At(q, bc[0])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return out, fmt.Errorf("%w: non-finite adjoint", ErrDiverged)
				}
				lam[k][q], d.lam[k][q] = v, wq[q]*v
			}
		}
	}
	// The grid term: T_k, Gᵀ·T_k, then Φ_k and E_k batch by batch.
	for k := range d.gt {
		d.gt[k] = make([]float64, npts)
	}
	par.ForChunks("grid_alpha_deriv", len(g.batches), 1, g.adjointDensities)
	tk := make([]float64, npts)
	for k := range d.gt {
		copy(tk, d.gt[k])
		if err := g.plan.SolveTranspose(tk, d.gt[k]); err != nil {
			return out, fmt.Errorf("dfpt: adjoint Poisson solve: %w", err)
		}
	}
	g.alphaGridTerms(n)

	// Assembly, one coordinate at a time.
	u, eps1 := m.OrbitalResponse(ground, nr)
	full := func(v []float64) *linalg.Matrix {
		f := mat(n, n)
		for q, l := range e.pairL {
			f.Set(l, e.pairR[q], v[q])
		}
		return f
	}
	// sym(C·F·Cᵀ) for the ∂D contractions.
	ao := func(f *linalg.Matrix) *linalg.Matrix {
		z := mat(n, n)
		linalg.Gemm(false, false, 1, e.c, f, 0, t, ops)
		linalg.Gemm(false, true, 1, t, e.c, 0, z, ops)
		z.Symmetrize()
		return z
	}
	// Dm·(F + Fᵀ), added into dst.
	addSym := func(dst, dmb, f *linalg.Matrix) {
		s := f.Clone()
		s.AddMatrix(f.T(), 1)
		linalg.Gemm(false, false, 1, dmb, s, 1, dst, ops)
	}
	var xf [3]*linalg.Matrix
	zs := make([]*linalg.Matrix, 0, 9)
	for c := range xf {
		xf[c] = full(d.x[c])
		zs = append(zs, ao(xf[c]))
	}
	var lf [6]*linalg.Matrix
	for k := range lf {
		lf[k] = full(d.lam[k])
		zs = append(zs, ao(lf[k]))
	}
	tr := m.DipoleDerivTraces(zs)
	eps := ground.Eps
	var sumFp float64
	for _, f := range e.FPrime {
		sumFp += f
	}
	n3 := len(u)
	for k, bc := range alphaPairs {
		b, c := bc[0], bc[1]
		omega := d.phi[k].Clone()
		omega.Scale(2)
		addSym(omega, dm[b], xf[c])
		addSym(omega, dm[c], lf[k])
		// ∂W_q = (∂f_i − ∂f_a − W_q·(∂ε_i − ∂ε_a))/(ε_i − ε_a) for the pair
		// q = (a, i): β takes the ∂ε part, phi the ∂f part.
		beta, phi := make([]float64, n), make([]float64, n)
		for q, l := range e.pairL {
			r := e.pairR[q]
			if wq[q] == 0 {
				continue
			}
			cq := lam[k][q] * (gv[c][q] + 2*mx[c][q]) / (eps[r] - eps[l])
			beta[r] -= cq * wq[q]
			beta[l] += cq * wq[q]
			phi[r] += cq
			phi[l] -= cq
		}
		occupationShare(beta, phi, e.FPrime, sumFp)
		da := make([]float64, n3)
		for y := range da {
			atom, ax := y/3, y%3
			var grid float64
			for f := range m.Basis.Funcs {
				if m.Basis.Funcs[f].Atom == atom {
					grid += d.e[k][3*f+ax]
				}
			}
			v := linalg.Dot(u[y].Data, omega.Data) + tr[c][b][y] + tr[3+k][c][y] +
				linalg.Dot(beta, eps1[y]) + 2*grid
			da[y] = -2 * v
		}
		out[b][c] = da
	}
	return out, nil
}

// occupationShare adds to beta, the coefficients of ∂ε in a derivative, the
// share that reaches it through the occupations: with coefficients phi of ∂f,
// f′ = fp the occupations' slope in the orbital energy and the Fermi level
// moving to keep the electron count, ∂f_p = f′_p·(∂ε_p − ∂μ) and ∂μ =
// Σ_p f′_p·∂ε_p / Σ_p f′_p. A gapped ground state's tails keep this share
// tiny; it vanishes with the smearing.
func occupationShare(beta, phi, fp []float64, sumFp float64) {
	if sumFp == 0 {
		return
	}
	var s float64
	for p, f := range fp {
		beta[p] += phi[p] * f
		s += phi[p] * f
	}
	for p, f := range fp {
		beta[p] -= s * f / sumFp
	}
}

// adjointDensities writes T_k = Σ_q Λ_q·τ^c_q of every component on the
// points of batches [lo, hi) into gt. Batches partition the grid, so the
// writes of different chunks are disjoint.
func (e *gridEnv) adjointDensities(_, lo, hi int) {
	d := e.deriv
	for bi := lo; bi < hi; bi++ {
		b := &e.batches[bi]
		for p, idx := range b.indices {
			phi := b.phi.Row(p)
			for k, bc := range alphaPairs {
				dphi := b.dphi[bc[1]].Row(p)
				var s float64
				for q, l := range e.pairL {
					r := e.pairR[q]
					s += d.lam[k][q] * (phi[l]*phi[r] + dphi[l]*phi[r] + phi[l]*dphi[r])
				}
				d.gt[k][idx] = s
			}
		}
	}
}

// alphaGridTerms accumulates Φ_k and E_k batch by batch, in batch order: the
// batch's operands A_k and B_k (alphaOperands), then Φ_k += w·(φᵀ·A_k +
// ∂_cφᵀ·B_k) and, through Ā = A_k·C_bᵀ and B̄ = B_k·C_bᵀ,
// E_k[f,d] −= w·Σ_r (∂_dX_f·Ā_f + ∂_c∂_dX_f·B̄_f) — the orbitals' and the
// moved functions' share of the grid term, per unit U and per unit
// displacement of function f.
func (e *gridEnv) alphaGridTerms(n int) {
	d := e.deriv
	w := e.g.Weight()
	ops := e.ops
	if ops == nil {
		ops = &linalg.DefaultOps
	}
	for k := range d.phi {
		d.phi[k] = linalg.NewMatrix(n, n)
		d.e[k] = make([]float64, 3*n)
		d.abuf[k], d.bbuf[k] = make([]float64, e.maxPts*n), make([]float64, e.maxPts*n)
	}
	maxLoc := 0
	for bi := range e.batches {
		maxLoc = max(maxLoc, len(e.batches[bi].funcs))
	}
	abarBuf, bbarBuf := make([]float64, e.maxPts*maxLoc), make([]float64, e.maxPts*maxLoc)
	for bi := range e.batches {
		b := &e.batches[bi]
		pts, nloc := len(b.indices), len(b.funcs)
		for k := range d.a {
			d.a[k] = linalg.NewMatrixFrom(pts, n, d.abuf[k][:pts*n])
			d.b[k] = linalg.NewMatrixFrom(pts, n, d.bbuf[k][:pts*n])
		}
		d.abar = linalg.NewMatrixFrom(pts, nloc, abarBuf[:pts*nloc])
		d.bbar = linalg.NewMatrixFrom(pts, nloc, bbarBuf[:pts*nloc])
		d.cur = b
		par.ForChunks("grid_alpha_deriv", pts, max(1, 512/e.np), e.alphaOperands)
		for k, bc := range alphaPairs {
			c := bc[1]
			linalg.Gemm(true, false, w, b.phi, d.a[k], 1, d.phi[k], ops)
			linalg.Gemm(true, false, w, b.dphi[c], d.b[k], 1, d.phi[k], ops)
			linalg.Gemm(false, true, 1, d.a[k], b.c, 0, d.abar, ops)
			linalg.Gemm(false, true, 1, d.b[k], b.c, 0, d.bbar, ops)
			ek := d.e[k]
			for p := 0; p < pts; p++ {
				ar, br := d.abar.Row(p), d.bbar.Row(p)
				for ax := 0; ax < 3; ax++ {
					gx, hx := b.gx[ax].Row(p), b.hx[hessIndex[c][ax]].Row(p)
					for j, f := range b.funcs {
						ek[3*f+ax] -= w * (gx[j]*ar[j] + hx[j]*br[j])
					}
				}
			}
		}
	}
}

// alphaOperands fills rows [lo, hi) of the current batch's A_k and B_k:
// with ζ^c the orbital weights of ∂ρ_x (ζ_a = Σ_i x_ai·φ_i, ζ_i = Σ_a
// x_ai·φ_a) and η^k, κ^k those of ∂T_λ through φ⁽ʸ⁾ and ∂_cφ⁽ʸ⁾,
// A_k = V_x·η^k + Gᵀ(T_λ)·ζ^c and B_k = V_x·κ^k.
func (e *gridEnv) alphaOperands(_, lo, hi int) {
	d, b := e.deriv, e.deriv.cur
	for p := lo; p < hi; p++ {
		idx := b.indices[p]
		phi := b.phi.Row(p)
		for k, bc := range alphaPairs {
			c := bc[1]
			dphi := b.dphi[c].Row(p)
			ar, br := d.a[k].Row(p), d.b[k].Row(p)
			clear(ar)
			clear(br)
			vx, gt := d.vx[c][idx], d.gt[k][idx]
			x, lam := d.x[c], d.lam[k]
			for q, l := range e.pairL {
				r := e.pairR[q]
				vl, gx := vx*lam[q], gt*x[q]
				ar[l] += vl*(phi[r]+dphi[r]) + gx*phi[r]
				ar[r] += vl*(phi[l]+dphi[l]) + gx*phi[l]
				br[l] += vl * phi[r]
				br[r] += vl * phi[l]
			}
		}
	}
}
