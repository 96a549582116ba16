// Package dfpt implements density-functional-perturbation-theory response
// calculations on top of the scf engine: the polarizability tensor α from
// the first-order response to a uniform electric field, the second-order
// field responses and the first-order responses to the nuclear coordinates
// that the analytic derivatives and Hessian are taken from (Responses), and
// grid mode's polarizability derivatives by the adjoint of its pair-space
// system (GridAlphaDerivatives). The polarizability is the per-displacement
// worker step of the paper (§V-A), kept for the displacement loop of
// fractional ground states and of grid mode's degenerate levels, and as the
// reference α solve grid ∂α differentiates: each DFPT cycle runs the
// four phases the paper names — response density matrix P⁽¹⁾, real-space
// response density n⁽¹⁾(r), Poisson solve for the response potential
// v⁽¹⁾(r), and response Hamiltonian H⁽¹⁾ — with per-phase timing, GEMM, and
// FLOP accounting (Table I's two reported parts are n⁽¹⁾ and H⁽¹⁾).
//
// Two Coulomb-response modes exist:
//
//   - GammaCoulomb: the charge-fluctuation response is evaluated through the
//     same Klopman–Ohno γ kernel as the ground state. This mode is exactly
//     the derivative of the variational SCF energy and is validated against
//     finite-field calculations to machine-ish precision. Its self-consistency
//     is affine in the N atomic response charges, so it is solved directly
//     (one N×N system per field direction) and each direction runs one cycle.
//   - GridCoulomb: the paper's real-space pipeline — batched basis
//     evaluation, many small GEMMs, direct sine-transform Poisson solve. Its
//     self-consistency is affine in the orbital-pair coefficients of P⁽¹⁾,
//     so it is solved directly in pair space: the orbitals and the pair
//     densities on the grid, one Poisson solve per pair, one pair-space
//     Coulomb matrix per direction and one linear solve — one cycle per
//     direction, whose four phases keep the paper's names (cycleEnv.solveGrid,
//     DESIGN.md §7). The AO-space cycle of §V-A with its symmetry-reduced
//     kernels (Fig. 6) lives on as the package tests' oracle.
package dfpt

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// ErrDiverged reports that a direct response solve met no virtual orbitals, a
// zero pivot, or a non-finite orbital, pair weight, charge, adjoint or P⁽¹⁾.
// It is a deterministic outcome of the fragment and its options: the
// smearing ladder (hessian.ComputeFragment) escalates on it, and the runtime
// (faults.Classify) never retries it. No solve of this package iterates, so
// none can fail to converge.
var ErrDiverged = errors.New("dfpt: response diverged")

// CoulombMode selects how the response Coulomb potential is computed.
type CoulombMode int

const (
	// GammaCoulomb uses the Klopman–Ohno charge-fluctuation kernel.
	GammaCoulomb CoulombMode = iota
	// GridCoulomb uses the real-space grid + Poisson pipeline.
	GridCoulomb
)

// Options configures the DFPT response. Both Coulomb modes solve their
// response directly, so MaxIter, Tol and Mixing — the iteration budget,
// convergence threshold and damping of the response loop both modes once ran
// — are read by neither. They are still validated and still part of the store
// fingerprint (hessian.JobOptions.AppendPhysics) until the options surface is
// cut (ROADMAP item 5).
type Options struct {
	MaxIter int     // read by neither mode; must be positive
	Tol     float64 // read by neither mode; must be positive
	Mixing  float64 // read by neither mode; must lie in (0,1]

	Coulomb CoulombMode

	// Grid parameters (GridCoulomb only); bohr.
	GridSpacing float64
	GridMargin  float64
	BatchSide   int // grid points per batch edge

	// InitP1 is ignored: a direct solve has no starting point.
	//
	// Deprecated: grid mode's response loop, which it warm-started, is gone.
	// The field survives only because bench/microscope.go compiles against it
	// and bench/ is frozen while a performance claim is measured; the next
	// benchmark PR should drop it there and here.
	InitP1 [3]*linalg.Matrix

	// Obs carries the observability handles; each DFPT cycle then records a
	// span with its four phase children (P⁽¹⁾, n⁽¹⁾, v⁽¹⁾, H⁽¹⁾) plus the
	// per-phase histograms. Execution-only: excluded from the store's
	// content fingerprint; the zero Scope disables instrumentation.
	Obs obs.Scope
}

// DefaultOptions returns settings adequate for fragment polarizabilities.
func DefaultOptions() Options {
	return Options{
		MaxIter:     400,
		Tol:         1e-7,
		Mixing:      0.3,
		Coulomb:     GammaCoulomb,
		GridSpacing: 0.7,
		GridMargin:  5.0,
		BatchSide:   6,
	}
}

// PhaseMetrics accumulates per-phase cost over all cycles and field
// directions of one polarizability calculation.
type PhaseMetrics struct {
	// Wall time per phase.
	TimeP1, TimeN1, TimeV1, TimeH1 time.Duration
	// GEMM invocation counts for the grid phases: the orbital tabulation
	// (n⁽¹⁾) and the pair-space contraction (H⁽¹⁾).
	GEMMsN1, GEMMsH1 int64
	// FLOPs for the grid phases (Table I reports these two parts).
	FLOPsN1, FLOPsH1 int64
}

// Response is the converged field response.
type Response struct {
	// Alpha is the polarizability tensor α_ij = ∂μ_i/∂E_j (a.u.).
	Alpha [3][3]float64
	// P1 are the response density matrices per field direction.
	P1 [3]*linalg.Matrix
	// Cycles is the number of DFPT cycles the solve ran: both modes solve
	// directly, one cycle per direction, 3.
	Cycles int
	// MixingUsed is Options.Mixing.
	//
	// Deprecated: no response loop damps anything. The field survives only
	// because bench/microscope.go compiles against it; see Options.InitP1.
	MixingUsed float64
	// Metrics holds the per-phase accounting.
	Metrics PhaseMetrics
}

// MeanPolarizability returns ᾱ = tr(α)/3.
func (r *Response) MeanPolarizability() float64 {
	return (r.Alpha[0][0] + r.Alpha[1][1] + r.Alpha[2][2]) / 3
}

// Polarizability computes the static polarizability tensor of a converged
// ground state by running one DFPT response per field direction: the one-shot
// form of Workspace.Polarizability. The Response owns its storage.
func Polarizability(m *scf.Model, ground *scf.Result, opt Options) (*Response, error) {
	resp, err := new(Workspace).Polarizability(m, ground, opt)
	if err != nil {
		return nil, err
	}
	out := *resp // detached from the workspace, which is garbage from here on
	return &out, nil
}

// Workspace keeps a cycle environment and a Response across polarizability
// calculations on models of one size — the displacement loop's 6N responses of
// one fragment — so that each re-seats the environment on its ground state
// instead of building one. The zero value is ready; one goroutine at a time.
type Workspace struct {
	env  cycleEnv
	p1   [3]*linalg.Matrix
	resp Response
}

// Polarizability is the package function of the same name on the workspace's
// storage: the Response and its P1 matrices belong to the workspace and are
// overwritten by its next call.
func (w *Workspace) Polarizability(m *scf.Model, ground *scf.Result, opt Options) (*Response, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return w.polarizability(m, ground, opt, nil)
}

// validate rejects the options neither mode reads but the store still hashes.
func (opt Options) validate() error {
	if opt.MaxIter <= 0 || opt.Tol <= 0 || opt.Mixing <= 0 || opt.Mixing > 1 {
		return fmt.Errorf("dfpt: invalid options (MaxIter %d, Tol %g, Mixing %g)", opt.MaxIter, opt.Tol, opt.Mixing)
	}
	return nil
}

// polarizability is Polarizability on validated options. Grid mode builds
// its environment unless the caller (a test) brings one.
func (w *Workspace) polarizability(m *scf.Model, ground *scf.Result, opt Options, gridEnv *gridEnv) (*Response, error) {
	w.resp = Response{MixingUsed: opt.Mixing}
	resp := &w.resp
	sc, dfptSpan := opt.Obs.Begin("dfpt", "dfpt")
	defer dfptSpan.End()
	if opt.Coulomb == GridCoulomb && gridEnv == nil {
		var err error
		gridEnv, err = newGridEnv(m, opt)
		if err != nil {
			return nil, err
		}
	}
	env := &w.env
	env.seat(m, ground, gridEnv)
	if n := m.Basis.Size(); w.p1[0] == nil || w.p1[0].Rows != n {
		for dir := range w.p1 {
			w.p1[dir] = linalg.NewMatrix(n, n)
		}
	}
	for dir := 0; dir < 3; dir++ {
		// Both arguments go on at End, whose argument list does not escape:
		// an untraced γ-mode solve allocates nothing.
		dirSc, dirSpan := sc.Begin("dfpt.dir", "dfpt")
		p1 := w.p1[dir]
		var err error
		if gridEnv == nil {
			err = env.solveGamma(dir, dirSc, &resp.Metrics, p1)
		} else {
			err = env.solveGrid(dir, dirSc, &resp.Metrics, p1)
		}
		dirSpan.End(obs.A("dir", int64(dir)), obs.A("cycles", 1))
		if err != nil {
			return nil, fmt.Errorf("dfpt: direction %d: %w", dir, err)
		}
		resp.P1[dir] = p1
		resp.Cycles++
		for i := 0; i < 3; i++ {
			// α_i,dir = ∂μ_i/∂E_dir = −tr(P⁽¹⁾_dir · D^i).
			resp.Alpha[i][dir] = -traceProduct(p1, m.Dip[i])
		}
	}
	return resp, nil
}

// cycleEnv holds what every DFPT cycle of one (model, ground state) shares —
// seated once per polarizability and used by its three field directions, the
// sibling of gridEnv (which keeps grid mode's real-space side). Everything
// that is a function of the ground state alone is resolved by seat: the
// gapped/fractional decision, the orbital blocks and pair weights of phase 1,
// ½S and the atom-of-function table of the γ kernel, grid mode's pair list,
// the bound GEMMs and every workspace; a γ-mode Polarizability allocates
// nothing, and neither does re-seating on another ground state of the same
// basis size. Environment buffers are never shared across goroutines and
// never alias a Result or a Response: the solves copy P⁽¹⁾ out.
type cycleEnv struct {
	m    *scf.Model
	grid *gridEnv // nil in γ mode
	n    int      // basis size the buffers below are allocated for

	// Phase 1 builds P⁽¹⁾ = sym(L·(W∘(Lᵀ·H⁽¹⁾·R))·Rᵀ). Gapped ground states
	// (every occupation within occTol of 0 or 2): L = C_virt, R = C_occ, W_ai
	// = (f_i−f_a)/(ε_i−ε_a) and sym(Z) = Z + Zᵀ — only occupied×virtual pairs
	// carry weight, which halves the GEMM work of the hot loop of the whole
	// displacement pipeline, and the exact per-pair occupation differences
	// keep the smearing tails exact. Fractional: L = R = C, W_qp is the full
	// pair-weight matrix with its analytic degenerate limit and sym(Z) =
	// (Z + Zᵀ)/2; its intraband pairs (p,p) carry no weight — the response to
	// a field is the optical one, occupations frozen — and their weights
	// f′_p = −(2/σ)·g_p(1 − g_p), g_p = f_p/2, are kept in fprime for the
	// static susceptibility of the charge loop (chargeSystem) — and, gapped,
	// for the occupations' share of grid ∂α (alphaDerivatives).
	gapped      bool
	left, right *linalg.Matrix    // cVirt and cOcc, or the ground state's C twice
	cVirt, cOcc *linalg.Matrix    // gapped: the gathered orbital blocks
	idx         []int             // gapped: virtual then occupied orbital indices
	fprime      []float64         // f′_p
	w           *linalg.Matrix    // rows(Lᵀ)×cols(R) pair weights
	tmp, u, lu  *linalg.Matrix    // Lᵀ·H⁽¹⁾, its product with R (then ∘W), L·u
	newP1       *linalg.Matrix    //
	p1Gemms     [4]*linalg.GemmOp // gemm_tn, gemm_nn, gemm_nn, gemm_nt
	p1FLOPs     int64             // of the four, per cycle

	// γ kernel: ½S, the atom of each basis function, Δq⁽¹⁾ and V⁽¹⁾.
	halfS   *linalg.Matrix
	atomOf  []int
	dq1, v1 []float64

	// γ mode's direct solve (solveGamma). The response Hamiltonian enters
	// phase 1 as Lᵀ·H⁽¹⁾·R = Lᵀ·D·R + Σ_B v_B·K_B with the pair-space vectors
	// K_A[a,i] = Σ_{μ∈A} (L_μa·(½S·R)_μi + (½S·L)_μa·R_μi), so the response
	// charges of a potential v are χ·v with χ_AB = c·Σ_ai W_ai·K_A[ai]·K_B[ai]
	// (c = 2 gapped, 1 fractional: the two forms of sym) and the
	// self-consistent charges solve (I − χ·Γ)·Δq⁽¹⁾ = c·K·(W∘(Lᵀ·D·R)).
	// Built once per ground state (chargeSystem, inside the first direction's
	// n⁽¹⁾ phase); sGemms are bound with p1Gemms.
	sr, sl    *linalg.Matrix    // ½S·R, ½S·L
	sGemms    [2]*linalg.GemmOp //
	k         []float64         // N rows of nl·nr pair-space vectors K_A
	wk        []float64         // W∘K_A, one row at a time
	chi       *linalg.Matrix    // N×N atom-charge susceptibility χ
	sys, fac  *linalg.Matrix    // I − χ·Γ, and the copy a direction's solve destroys
	chargeMul float64           // c

	// Grid mode's direct solve (solveGrid). The pairs q whose coefficients
	// u_q make up U — gapped every (a, i) at u[a][i], fractional every
	// unordered p < r at u[p][r] and its mirror — are listed as the columns
	// of C whose orbitals' product is the pair density (pairL, pairR) and the
	// pair's place in u and w (pairAt). pairSys is the system
	// I − 2·diag(W)·M_d a direction's solve builds and destroys, pairX its
	// right-hand side, then solution.
	c            *linalg.Matrix // the ground state's C
	pairL, pairR []int
	pairAt       []int
	pairSys      *linalg.Matrix
	pairX        []float64

	h1      *linalg.Matrix
	samples []obs.CycleSample // the span batch of a direction, reused across solves
}

// occTol is how far from 0 or 2 an occupation may lie in a gapped ground
// state.
const occTol = 1e-3

// Gapped reports whether every occupation lies within occTol of 0 or 2: the
// ground states whose field response is built from occupied×virtual pairs
// alone (cycleEnv), and whose Hessian, dipole and polarizability derivatives
// are taken analytically (Responses, scf.Model.FieldDerivatives and
// NuclearHessian).
func Gapped(occ []float64) bool {
	for _, f := range occ {
		if f > occTol && f < 2-occTol {
			return false
		}
	}
	return true
}

// reshape makes m a rows×cols view of its own storage (allocated n×n).
func reshape(m *linalg.Matrix, rows, cols int) {
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
}

// seat points the environment at a (model, ground state), allocating only when
// the basis size differs from the one it holds buffers for.
func (e *cycleEnv) seat(m *scf.Model, ground *scf.Result, grid *gridEnv) {
	n := m.Basis.Size()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	if e.n != n || e.newP1 == nil {
		*e = cycleEnv{
			n: n, newP1: sq(), h1: sq(),
			cVirt: sq(), cOcc: sq(), w: sq(), tmp: sq(), u: sq(), lu: sq(),
			halfS: sq(), sr: sq(), sl: sq(),
			idx: make([]int, n), atomOf: make([]int, n), fprime: make([]float64, n),
			samples: e.samples,
		}
	}
	e.m, e.grid, e.c = m, grid, ground.C
	e.gapped = Gapped(ground.Occ)
	occ, eps := ground.Occ, ground.Eps
	for p, f := range occ {
		e.fprime[p] = 0
		if ground.Sigma > 0 {
			g := 0.5 * f
			e.fprime[p] = -2 / ground.Sigma * g * (1 - g)
		}
	}
	left, right := ground.C, ground.C
	nl, nr := n, n
	if e.gapped {
		nl = 0
		for k, f := range occ {
			if !(f > occTol) {
				e.idx[nl] = k
				nl++
			}
		}
		nr = n - nl
		virtIdx, occIdx := e.idx[:nl], e.idx[nl:]
		for k, i := 0, 0; k < n; k++ {
			if occ[k] > occTol {
				occIdx[i] = k
				i++
			}
		}
		left, right = e.cVirt, e.cOcc
		gatherColumns(left, ground.C, virtIdx)
		gatherColumns(right, ground.C, occIdx)
		reshape(e.w, nl, nr)
		for a, va := range virtIdx {
			row := e.w.Row(a)
			for i, oi := range occIdx {
				// Near-degenerate pairs keep weight zero.
				row[i] = 0
				if de := eps[oi] - eps[va]; !(de > -1e-9 && de < 1e-9) {
					row[i] = (occ[oi] - occ[va]) / de
				}
			}
		}
	} else {
		reshape(e.w, n, n)
		for q := 0; q < n; q++ {
			row := e.w.Row(q)
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
				case ground.Sigma > 0:
					// Degenerate pair: the analytic limit f'(ε̄).
					g := 0.25 * (occ[p] + occ[q]) // per-spin mean
					row[p] = -2 / ground.Sigma * g * (1 - g)
				}
			}
		}
	}
	if e.p1Gemms[0] == nil || left != e.left || right != e.right || e.tmp.Rows != nl || e.u.Cols != nr {
		e.left, e.right = left, right
		reshape(e.tmp, nl, n)
		reshape(e.u, nl, nr)
		reshape(e.lu, n, nr)
		e.p1Gemms = [4]*linalg.GemmOp{
			linalg.BindGemm(true, false, 1, e.left, e.h1, 0, e.tmp),
			linalg.BindGemm(false, false, 1, e.tmp, e.right, 0, e.u),
			linalg.BindGemm(false, false, 1, e.left, e.u, 0, e.lu),
			linalg.BindGemm(false, true, 1, e.lu, e.right, 0, e.newP1),
		}
		e.p1FLOPs = linalg.GemmFLOPs(nl, n, n) + linalg.GemmFLOPs(nl, n, nr) +
			linalg.GemmFLOPs(n, nl, nr) + linalg.GemmFLOPs(n, nr, n)
		reshape(e.sr, n, nr)
		reshape(e.sl, n, nl)
		e.sGemms = [2]*linalg.GemmOp{
			linalg.BindGemm(false, false, 1, e.halfS, e.right, 0, e.sr),
			linalg.BindGemm(false, false, 1, e.halfS, e.left, 0, e.sl),
		}
	}
	if grid != nil {
		e.seatPairs(nl, nr)
		return
	}
	na := m.NumAtoms()
	if len(e.dq1) != na {
		e.dq1, e.v1 = make([]float64, na), make([]float64, na)
		e.chi, e.sys, e.fac = linalg.NewMatrix(na, na), linalg.NewMatrix(na, na), linalg.NewMatrix(na, na)
	}
	e.halfS.CopyFrom(m.S)
	e.halfS.Scale(0.5)
	for i := range e.atomOf {
		e.atomOf[i] = m.Basis.Funcs[i].Atom
	}
	if pairs := nl * nr; cap(e.wk) < pairs || cap(e.k) < na*pairs {
		e.k, e.wk = make([]float64, na*pairs), make([]float64, pairs)
	}
	e.chargeMul = 1
	if e.gapped {
		e.chargeMul = 2
	}
}

// seatPairs lays out grid mode's pair list (see cycleEnv) for nl×nr pair
// weights, allocating only when the pair count grows.
func (e *cycleEnv) seatPairs(nl, nr int) {
	np := nl * nr
	if !e.gapped {
		np = e.n * (e.n - 1) / 2
	}
	if e.pairSys == nil || cap(e.pairAt) < np {
		e.pairL, e.pairR, e.pairAt = make([]int, np), make([]int, np), make([]int, np)
		e.pairX, e.pairSys = make([]float64, np), linalg.NewMatrix(np, np)
	}
	e.pairL, e.pairR, e.pairAt, e.pairX = e.pairL[:np], e.pairR[:np], e.pairAt[:np], e.pairX[:np]
	reshape(e.pairSys, np, np)
	q := 0
	if e.gapped {
		for a := 0; a < nl; a++ {
			for i := 0; i < nr; i++ {
				e.pairL[q], e.pairR[q], e.pairAt[q] = e.idx[a], e.idx[nl+i], a*nr+i
				q++
			}
		}
		return
	}
	for p := 0; p < e.n; p++ {
		for r := p + 1; r < e.n; r++ {
			e.pairL[q], e.pairR[q], e.pairAt[q] = p, r, p*e.n+r
			q++
		}
	}
}

// ops returns the counters the model's GEMMs report to.
func (e *cycleEnv) ops() *linalg.Ops {
	if e.m.Ops != nil {
		return e.m.Ops
	}
	return &linalg.DefaultOps
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

// solveGamma computes γ mode's self-consistent response to a unit field along
// dir and copies P⁽¹⁾ into dst, as one DFPT cycle whose four phases are
// n⁽¹⁾ = the charges of the bare field (Lᵀ·D·R by the first two phase-1
// GEMMs) and the solve (I − χ·Γ)·Δq⁽¹⁾ = q₀, v⁽¹⁾ = Γ·Δq⁽¹⁾, H⁽¹⁾ = D +
// ½S∘(V⁽¹⁾_A + V⁽¹⁾_B) and P⁽¹⁾ = one responseDensity — whose charges are the
// Δq⁽¹⁾ it was built from to rounding, so it is the fixed point of the
// iterative cycle, not an approximation of it within a tolerance. The first
// direction also builds the ground state's system (chargeSystem) inside its
// n⁽¹⁾ phase. No virtual orbitals, a zero pivot and a non-finite charge or
// P⁽¹⁾ are ErrDiverged.
func (e *cycleEnv) solveGamma(dir int, sc obs.Scope, met *PhaseMetrics, dst *linalg.Matrix) error {
	nl, nr := e.left.Cols, e.right.Cols
	if nl == 0 {
		return fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, e.n, nr)
	}
	base := time.Now()
	if dir == 0 {
		e.chargeSystem(false)
	}
	e.h1.CopyFrom(e.m.Dip[dir]) // +D^dir per unit field (electron charge −1)
	e.p1Gemms[0].Run()          // tmp = Lᵀ·D
	e.p1Gemms[1].Run()          // u = tmp·R
	pairs := nl * nr
	for i, w := range e.w.Data {
		e.u.Data[i] *= w
	}
	for a := range e.dq1 {
		e.dq1[a] = e.chargeMul * linalg.Dot(e.k[a*pairs:(a+1)*pairs], e.u.Data)
	}
	e.fac.CopyFrom(e.sys)
	if err := linalg.SolveLinearInPlace(e.fac, e.dq1); err != nil {
		return fmt.Errorf("%w: zero pivot in the charge response system", ErrDiverged)
	}
	for a, q := range e.dq1 {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return fmt.Errorf("%w: non-finite response charge on atom %d", ErrDiverged, a)
		}
	}
	tN1 := time.Since(base)
	e.gammaResponsePotential()
	tV1 := time.Since(base)
	e.addGammaResponseH1() // h1 still holds D
	tH1 := time.Since(base)
	e.responseDensity()
	tP1 := time.Since(base)
	if err := e.emitP1(dst); err != nil {
		return err
	}

	// The GEMMs are bound ops that count nothing: the two of q₀ and the four
	// of responseDensity (chargeSystem counts its own).
	ops := e.ops()
	ops.GEMMCalls.Add(6)
	ops.FLOPs.Add(e.p1FLOPs + linalg.GemmFLOPs(nl, e.n, e.n) + linalg.GemmFLOPs(nl, e.n, nr))
	e.record(sc, met, base, tN1, tV1, tH1, tP1)
	return nil
}

// solveGrid computes grid mode's self-consistent response to a unit field
// along dir and copies P⁽¹⁾ into dst, as one DFPT cycle (DESIGN.md §7, "Grid
// mode: the pair-space system"). With P⁽¹⁾ = sym(L·U·Rᵀ) the response density
// is n⁽¹⁾ = 2·Σ_q u_q·ρ_q over the environment's pairs, ρ_q = φ_l·φ_r the
// product of the pair's orbitals on the grid, so its potential is
// 2·Σ_q u_q·v_q with v_q = G(ρ_q), and the Coulomb part of Lᵀ·H⁽¹⁾·R on pair
// q is 2·Σ_q′ M_d[q,q′]·u_q′ (gridEnv.contract). U = W∘(Lᵀ·H⁽¹⁾·R) is then
// the linear system (I − 2·diag(W)·M_d)·u = W∘(Lᵀ·D_d·R). Its four phases:
// n⁽¹⁾ = the orbitals and the pair densities, v⁽¹⁾ = one Poisson solve per
// pair — both in the first direction only, neither depends on it — H⁽¹⁾ =
// the contraction M_d, P⁽¹⁾ = the system, its solve and the P⁽¹⁾ build. The
// returned P⁽¹⁾ reproduces itself through the AO-space cycle to rounding: it
// is that cycle's fixed point. No virtual orbitals, a non-finite orbital or
// pair weight, a zero pivot and a non-finite P⁽¹⁾ are ErrDiverged; a
// non-finite density is the Poisson solve's poisson.ErrNonFinite.
func (e *cycleEnv) solveGrid(dir int, sc obs.Scope, met *PhaseMetrics, dst *linalg.Matrix) error {
	nl, nr := e.left.Cols, e.right.Cols
	if nl == 0 {
		return fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, e.n, nr)
	}
	g := e.grid
	base := time.Now()
	if dir == 0 {
		for _, m := range [...]*linalg.Matrix{e.c, e.w} {
			for _, v := range m.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: non-finite orbital coefficient or pair weight", ErrDiverged)
				}
			}
		}
		g.pairDensities(e.c, e.pairL, e.pairR)
		met.GEMMsN1 += g.orbGemms
		met.FLOPsN1 += g.orbFLOPs
	}
	tN1 := time.Since(base)
	if dir == 0 {
		if err := g.pairPotentials(); err != nil {
			return err
		}
	}
	tV1 := time.Since(base)
	mc := g.contract(dir)
	if g.deriv != nil {
		g.deriv.m[dir] = mc.Clone()
	}
	met.GEMMsH1 += int64(len(g.batches))
	met.FLOPsH1 += g.contractFLOPs
	tH1 := time.Since(base)

	e.h1.CopyFrom(e.m.Dip[dir]) // +D^dir per unit field (electron charge −1)
	e.p1Gemms[0].Run()          // tmp = Lᵀ·D
	e.p1Gemms[1].Run()          // u = tmp·R
	if err := e.solvePairs(mc); err != nil {
		return err
	}
	if g.deriv != nil {
		g.deriv.x[dir] = append([]float64(nil), e.pairX...)
	}
	e.densityMatrix()
	tP1 := time.Since(base)
	if err := e.emitP1(dst); err != nil {
		return err
	}

	// The four phase-1 GEMMs are bound ops that count nothing; the
	// tabulation plan and the contraction count their own.
	ops := e.ops()
	ops.GEMMCalls.Add(4)
	ops.FLOPs.Add(e.p1FLOPs)
	e.record(sc, met, base, tN1, tV1, tH1, tP1)
	return nil
}

// solvePairs turns u = Lᵀ·D·R into the pair coefficients of the
// self-consistent response: it solves (I − 2·diag(W)·mc)·x = W∘b over the
// pair list, b the pairs' entries of u, and writes x back as u (both places
// of a fractional pair, zero elsewhere). A zero pivot is ErrDiverged.
func (e *cycleEnv) solvePairs(mc *linalg.Matrix) error {
	x := e.pairX
	for q, at := range e.pairAt {
		w := e.w.Data[at]
		x[q] = w * e.u.Data[at]
		row, src := e.pairSys.Row(q), mc.Row(q)
		for k, v := range src {
			row[k] = -2 * w * v
		}
		row[q]++
	}
	if err := linalg.SolveLinearInPlace(e.pairSys, x); err != nil {
		return fmt.Errorf("%w: zero pivot in the pair response system", ErrDiverged)
	}
	clear(e.u.Data)
	for q, at := range e.pairAt {
		e.u.Data[at] = x[q]
		if !e.gapped {
			e.u.Data[e.pairR[q]*e.n+e.pairL[q]] = x[q]
		}
	}
	return nil
}

// emitP1 copies newP1 into dst unless it holds a non-finite entry, which is
// ErrDiverged.
func (e *cycleEnv) emitP1(dst *linalg.Matrix) error {
	for _, v := range e.newP1.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: non-finite P1", ErrDiverged)
		}
	}
	dst.CopyFrom(e.newP1)
	return nil
}

// record adds one direction's cycle — its phase boundaries as offsets from
// base — to met and, when traced, records it as a DFPT cycle span.
func (e *cycleEnv) record(sc obs.Scope, met *PhaseMetrics, base time.Time, tN1, tV1, tH1, tP1 time.Duration) {
	durs := [obs.NumPhases]time.Duration{
		obs.PhaseN1: tN1, obs.PhaseV1: tV1 - tN1, obs.PhaseH1: tH1 - tV1, obs.PhaseP1: tP1 - tH1,
	}
	met.TimeN1 += durs[obs.PhaseN1]
	met.TimeV1 += durs[obs.PhaseV1]
	met.TimeH1 += durs[obs.PhaseH1]
	met.TimeP1 += durs[obs.PhaseP1]
	if sc.Enabled() {
		e.samples = append(e.samples[:0], obs.CycleSample{Iter: 1, Durs: durs, Total: tP1})
		sc.RecordDFPTCycles(base, e.samples)
	}
}

// chargeSystem builds the ground state's pair-space vectors K_A, the
// susceptibility χ and the system matrix I − χ·Γ (see cycleEnv). χ is the
// optical response, occupations frozen, which α is made of. With static set,
// a fractional ground state's occupations follow the potential as the SCF
// charge map re-solves them (ChordMatrix): the intraband pairs add
// Σ_p f′_p·K_A[pp]·K_B[pp], and the Fermi level moves to keep the electron
// count, which projects out their response to a uniform potential,
// v = Σ_p f′_p·K[pp]: χ ← χ − v·vᵀ/s with s = Σ_p f′_p, so that 1ᵀ·χ = 0
// still. A gapped χ has neither term.
func (e *cycleEnv) chargeSystem(static bool) {
	e.sGemms[0].Run() // sr = ½S·R
	e.sGemms[1].Run() // sl = ½S·L
	nl, nr := e.left.Cols, e.right.Cols
	ops := e.ops()
	ops.GEMMCalls.Add(2)
	ops.FLOPs.Add(linalg.GemmFLOPs(e.n, e.n, nr) + linalg.GemmFLOPs(e.n, e.n, nl))
	pairs, na := nl*nr, len(e.dq1)
	k, wk := e.k[:na*pairs], e.wk[:pairs]
	clear(k)
	for mu, a := range e.atomOf {
		ka := k[a*pairs : (a+1)*pairs]
		lrow, slrow := e.left.Row(mu), e.sl.Row(mu)
		rrow, srrow := e.right.Row(mu), e.sr.Row(mu)
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
		for p, w := range e.w.Data {
			wk[p] = w * ka[p]
		}
		for b := 0; b <= a; b++ {
			x := e.chargeMul * linalg.Dot(wk, k[b*pairs:(b+1)*pairs])
			e.chi.Set(a, b, x)
			e.chi.Set(b, a, x)
		}
	}
	if static && !e.gapped {
		// The pair (p,p) is at p·(n+1); v goes in v1, which the chord does not use.
		diag := func(a, p int) float64 { return k[a*pairs+p*(nl+1)] }
		v := e.v1
		var s float64
		for _, d := range e.fprime {
			s += d
		}
		for a := range v {
			v[a] = 0
			for p, d := range e.fprime {
				v[a] += d * diag(a, p)
			}
		}
		for a := 0; a < na; a++ {
			row := e.chi.Row(a)
			for b := range row {
				var x float64
				for p, d := range e.fprime {
					x += d * diag(a, p) * diag(b, p)
				}
				row[b] += x - v[a]*v[b]/s
			}
		}
	}
	for a := 0; a < na; a++ {
		row, chi := e.sys.Row(a), e.chi.Row(a)
		for b := range row {
			var s float64
			for c, x := range chi {
				s += x * e.m.Gamma.At(c, b)
			}
			row[b] = -s
		}
		row[a]++
	}
}

// ChordMatrix returns M = (I − J)⁻¹ for the Jacobian J = ∂F/∂Δq of the SCF
// charge map F (input charges → Mulliken charges of the resulting density) at
// the converged ground state of m: J = χ·Γ, built in closed form from the
// ground state's eigenpairs by the γ-mode response's own chargeSystem, static
// (see there). It is what scf.Options.Chord takes for solves at nearby
// geometries. A singular I − J returns nil: the callers' fallback is the
// Pulay loop, which nil selects.
func ChordMatrix(m *scf.Model, ground *scf.Result) *linalg.Matrix {
	var e cycleEnv
	e.seat(m, ground, nil)
	e.chargeSystem(true)
	na := len(e.dq1)
	inv, col := linalg.NewMatrix(na, na), e.dq1
	for b := 0; b < na; b++ {
		e.fac.CopyFrom(e.sys)
		clear(col)
		col[b] = 1
		if linalg.SolveLinearInPlace(e.fac, col) != nil {
			return nil
		}
		for a, x := range col {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil
			}
			inv.Set(a, b, x)
		}
	}
	return inv
}

// responseDensity computes the uncoupled first-order density matrix for the
// perturbation h1 into newP1 (the field leaves S unchanged, so no
// overlap-response terms appear). With occupations f_p the standard
// perturbation sum is
//
//	P⁽¹⁾ = Σ_{p≠q} w_pq (c_qᵀ h1 c_p) c_q c_pᵀ,
//	w_pq = (f_p − f_q)/(ε_p − ε_q),
//
// which reduces to the closed-shell occupied→virtual sum for integral
// occupations, and which Fermi smearing regularizes: for near-degenerate
// pairs w_pq tends to the finite derivative f'(ε), so small-gap fragments
// stay well-conditioned. The weights are the environment's (see cycleEnv);
// what is left is four GEMMs, one Hadamard product and the symmetrization.
func (e *cycleEnv) responseDensity() {
	e.p1Gemms[0].Run() // tmp = Lᵀ·h1
	e.p1Gemms[1].Run() // u = tmp·R
	for i, w := range e.w.Data {
		e.u.Data[i] *= w
	}
	e.densityMatrix()
}

// densityMatrix builds newP1 = sym(L·u·Rᵀ) from the pair coefficients in u.
func (e *cycleEnv) densityMatrix() {
	e.p1Gemms[2].Run() // lu = L·u
	e.p1Gemms[3].Run() // newP1 = lu·Rᵀ
	if !e.gapped {
		// The symmetric partner (q,p) carries the same weight, so P⁽¹⁾ is
		// symmetric up to rounding.
		e.newP1.Symmetrize()
		return
	}
	e.newP1.AddTranspose() // P⁽¹⁾ = Z + Zᵀ
}

// gammaResponsePotential computes V⁽¹⁾ = γ·Δq⁽¹⁾ — the v⁽¹⁾ phase.
func (e *cycleEnv) gammaResponsePotential() {
	for a := range e.v1 {
		var s float64
		for b, g := range e.m.Gamma.Row(a) {
			s += g * e.dq1[b]
		}
		e.v1[a] = s
	}
}

// addGammaResponseH1 adds ½S_μν(V⁽¹⁾_A + V⁽¹⁾_B) to h1 — the H⁽¹⁾ phase.
func (e *cycleEnv) addGammaResponseH1() {
	for i, ai := range e.atomOf {
		hrow, srow := e.h1.Row(i), e.halfS.Row(i)
		for j, aj := range e.atomOf {
			hrow[j] += srow[j] * (e.v1[ai] + e.v1[aj])
		}
	}
}

func traceProduct(a, b *linalg.Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j, av := range arow {
			s += av * b.At(j, i)
		}
	}
	return s
}
