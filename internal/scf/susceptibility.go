package scf

import (
	"math"

	"qframan/internal/linalg"
)

// OccTol is how far from 0 or 2 an occupation may lie in a gapped ground
// state.
const OccTol = 1e-3

// Gapped reports whether every occupation lies within OccTol of 0 or 2: the
// ground states whose responses are built from occupied×virtual pairs alone
// (Susceptibility), and whose Hessian, dipole and polarizability derivatives
// are taken analytically (dfpt.Responses, Model.FieldDerivatives and
// NuclearHessian).
func Gapped(occ []float64) bool {
	for _, f := range occ {
		if f > OccTol && f < 2-OccTol {
			return false
		}
	}
	return true
}

// Susceptibility is the atom-charge response of one set of eigenpairs — a
// converged ground state, or one evaluation of the charge map — in
// orbital-pair space. It is the one owner of that build: the charge loop's
// Newton step (Workspace) and every γ-kernel DFPT response (dfpt's charge
// closure) read it. Seat resolves what is a function of the eigenpairs alone;
// Build forms K_A, χ and I − χ·Γ. Buffers are kept across seats on one basis
// size; one goroutine at a time.
//
// A response of the pair block is P⁽¹⁾ = sym(L·(W∘(Lᵀ·H⁽¹⁾·R))·Rᵀ). Gapped
// eigenpairs (every occupation within OccTol of 0 or 2): L = C_virt, R = C_occ,
// W_ai = (f_i−f_a)/(ε_i−ε_a) and sym(Z) = Z + Zᵀ — only occupied×virtual
// pairs carry weight, and the exact per-pair occupation differences keep the
// smearing tails exact. Fractional: L = R = C, W_qp is the full pair-weight
// matrix with its analytic degenerate limit and sym(Z) = (Z + Zᵀ)/2; its
// intraband pairs (p,p) carry no weight — the response to a field is the
// optical one, occupations frozen — and their weights f′_p = −(2/σ)·g_p(1 −
// g_p), g_p = f_p/2, are kept in FPrime for the static susceptibility
// (Build(true)) and, gapped, for the occupations' share of grid ∂α.
//
// A potential v enters the pair block as Lᵀ·(½S∘(v_A + v_B))·R = Σ_B v_B·K_B
// with the pair-space vectors K_A[a,i] = Σ_{μ∈A} (L_μa·(½S·R)_μi +
// (½S·L)_μa·R_μi), so the response charges of a potential v are χ·v with χ_AB
// = c·Σ_ai W_ai·K_A[ai]·K_B[ai] (c = 2 gapped, 1 fractional: the two forms of
// sym), and self-consistent charges solve (I − χ·Γ)·Δq = q₀, q₀ the charges
// of everything but the answer's own potential.
type Susceptibility struct {
	m *Model
	n int // basis size the n×n buffers are allocated for

	Gapped      bool
	Left, Right *linalg.Matrix // cVirt and cOcc, or the eigenvectors twice
	cVirt       *linalg.Matrix // gapped: the gathered orbital blocks
	cOcc        *linalg.Matrix //
	Idx         []int          // gapped: virtual then occupied orbital indices
	FPrime      []float64      // f′_p
	W           *linalg.Matrix // rows(Lᵀ)×cols(R) pair weights

	// The γ kernel: ½S, the atom of each basis function, ½S·R and ½S·L.
	HalfS  *linalg.Matrix
	AtomOf []int
	SR, SL *linalg.Matrix
	sGemms [2]*linalg.GemmOp

	// Build's output: N rows of nl·nr pair-space vectors K_A, χ (N×N), the
	// system I − χ·Γ and c.
	K         []float64
	Chi, Sys  *linalg.Matrix
	ChargeMul float64
	wk, vf    []float64 // W∘K_A one row at a time; the static term's Σ_p f′_p·K[pp]
}

// Seat points s at the eigenpairs (c, eps, occ) of m, computed at smearing
// sigma, allocating only when the basis size differs from the one it holds
// buffers for. It reports whether Left, Right or their shapes changed, in which
// case GEMMs bound to them must be rebound.
func (s *Susceptibility) Seat(m *Model, c *linalg.Matrix, eps, occ []float64, sigma float64) (rebound bool) {
	n := m.Basis.Size()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	if s.n != n || s.W == nil {
		*s = Susceptibility{
			n: n, cVirt: sq(), cOcc: sq(), W: sq(), HalfS: sq(), SR: sq(), SL: sq(),
			Idx: make([]int, n), AtomOf: make([]int, n), FPrime: make([]float64, n),
		}
	}
	s.m = m
	s.Gapped = Gapped(occ)
	for p, f := range occ {
		s.FPrime[p] = 0
		if sigma > 0 {
			g := 0.5 * f
			s.FPrime[p] = -2 / sigma * g * (1 - g)
		}
	}
	left, right := c, c
	nl, nr := n, n
	if s.Gapped {
		nl = 0
		for k, f := range occ {
			if !(f > OccTol) {
				s.Idx[nl] = k
				nl++
			}
		}
		nr = n - nl
		virtIdx, occIdx := s.Idx[:nl], s.Idx[nl:]
		for k, i := 0, 0; k < n; k++ {
			if occ[k] > OccTol {
				occIdx[i] = k
				i++
			}
		}
		left, right = s.cVirt, s.cOcc
		gatherColumns(left, c, virtIdx)
		gatherColumns(right, c, occIdx)
		reshape(s.W, nl, nr)
		for a, va := range virtIdx {
			row := s.W.Row(a)
			for i, oi := range occIdx {
				// Near-degenerate pairs keep weight zero.
				row[i] = 0
				if de := eps[oi] - eps[va]; !(de > -1e-9 && de < 1e-9) {
					row[i] = (occ[oi] - occ[va]) / de
				}
			}
		}
	} else {
		reshape(s.W, n, n)
		for q := 0; q < n; q++ {
			row := s.W.Row(q)
			for p := 0; p < n; p++ {
				row[p] = 0
				if p == q {
					continue
				}
				df := occ[p] - occ[q]
				de := eps[p] - eps[q]
				switch {
				case math.Abs(de) > 1e-8:
					row[p] = df / de
				case sigma > 0:
					// Degenerate pair: the analytic limit f'(ε̄).
					g := 0.25 * (occ[p] + occ[q]) // per-spin mean
					row[p] = -2 / sigma * g * (1 - g)
				}
			}
		}
	}
	if s.sGemms[0] == nil || left != s.Left || right != s.Right || s.SR.Cols != nr || s.SL.Cols != nl {
		s.Left, s.Right = left, right
		reshape(s.SR, n, nr)
		reshape(s.SL, n, nl)
		s.sGemms = [2]*linalg.GemmOp{
			linalg.BindGemm(false, false, 1, s.HalfS, s.Right, 0, s.SR),
			linalg.BindGemm(false, false, 1, s.HalfS, s.Left, 0, s.SL),
		}
		rebound = true
	}
	s.HalfS.CopyFrom(m.S)
	s.HalfS.Scale(0.5)
	for i := range s.AtomOf {
		s.AtomOf[i] = m.Basis.Funcs[i].Atom
	}
	s.ChargeMul = 1
	if s.Gapped {
		s.ChargeMul = 2
	}
	return rebound
}

// Build forms the seated eigenpairs' pair-space vectors K_A, the
// susceptibility χ and the system matrix I − χ·Γ, allocating only when the
// pair or atom count outgrows the buffers. χ is the optical response,
// occupations frozen, which α is made of. With static set, a fractional
// state's occupations follow the potential as the charge map re-solves them:
// the intraband pairs add Σ_p f′_p·K_A[pp]·K_B[pp], and the Fermi level moves
// to keep the electron count, which projects out their response to a uniform
// potential, v = Σ_p f′_p·K[pp]: χ ← χ − v·vᵀ/s with s = Σ_p f′_p, so that
// 1ᵀ·χ = 0 still. χ·Γ is then the Jacobian ∂F/∂Δq of the charge map (the
// Newton step's). A gapped χ has neither term.
func (s *Susceptibility) Build(static bool) {
	m := s.m
	na := m.NumAtoms()
	nl, nr := s.Left.Cols, s.Right.Cols
	pairs := nl * nr
	if cap(s.wk) < pairs || cap(s.K) < na*pairs {
		s.K, s.wk = make([]float64, na*pairs), make([]float64, pairs)
	}
	if s.Chi == nil || s.Chi.Rows != na {
		s.Chi, s.Sys, s.vf = linalg.NewMatrix(na, na), linalg.NewMatrix(na, na), make([]float64, na)
	}
	s.sGemms[0].Run() // SR = ½S·R
	s.sGemms[1].Run() // SL = ½S·L
	k, wk := s.K[:na*pairs], s.wk[:pairs]
	clear(k)
	for mu, a := range s.AtomOf {
		ka := k[a*pairs : (a+1)*pairs]
		lrow, slrow := s.Left.Row(mu), s.SL.Row(mu)
		rrow, srrow := s.Right.Row(mu), s.SR.Row(mu)
		for p := 0; p < nl; p++ {
			lp, slp := lrow[p], slrow[p]
			kp := ka[p*nr : (p+1)*nr]
			for i, r := range rrow {
				kp[i] += lp*srrow[i] + slp*r
			}
		}
	}
	for a := 0; a < na; a++ {
		ka := k[a*pairs : (a+1)*pairs]
		for p, w := range s.W.Data {
			wk[p] = w * ka[p]
		}
		for b := 0; b <= a; b++ {
			x := s.ChargeMul * linalg.Dot(wk, k[b*pairs:(b+1)*pairs])
			s.Chi.Set(a, b, x)
			s.Chi.Set(b, a, x)
		}
	}
	if static && !s.Gapped {
		// The pair (p,p) is at p·(n+1).
		diag := func(a, p int) float64 { return k[a*pairs+p*(nl+1)] }
		v := s.vf
		var sum float64
		for _, d := range s.FPrime {
			sum += d
		}
		for a := range v {
			v[a] = 0
			for p, d := range s.FPrime {
				v[a] += d * diag(a, p)
			}
		}
		for a := 0; a < na; a++ {
			row := s.Chi.Row(a)
			for b := range row {
				var x float64
				for p, d := range s.FPrime {
					x += d * diag(a, p) * diag(b, p)
				}
				row[b] += x - v[a]*v[b]/sum
			}
		}
	}
	for a := 0; a < na; a++ {
		row, chi := s.Sys.Row(a), s.Chi.Row(a)
		for b := range row {
			var x float64
			for c, y := range chi {
				x += y * m.Gamma.At(c, b)
			}
			row[b] = -x
		}
		row[a]++
	}
}

// reshape makes m a rows×cols view of its own storage (allocated n×n).
func reshape(m *linalg.Matrix, rows, cols int) {
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// gatherColumns makes dst (storage for n×n) the n×len(cols) matrix of the
// given columns of c.
func gatherColumns(dst, c *linalg.Matrix, cols []int) {
	reshape(dst, c.Rows, len(cols))
	for i := 0; i < c.Rows; i++ {
		src, out := c.Row(i), dst.Row(i)
		for k, col := range cols {
			out[k] = src[col]
		}
	}
}
