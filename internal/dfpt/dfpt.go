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
// v⁽¹⁾(r), and response Hamiltonian H⁽¹⁾ — with per-phase timing and, for
// grid mode's n⁽¹⁾ and H⁽¹⁾ (Table I's two reported parts), GEMM and FLOP
// counts taken from the phases' call lists (PhaseMetrics).
//
// Two Coulomb-response modes exist:
//
//   - GammaCoulomb: the charge-fluctuation response is evaluated through the
//     same Klopman–Ohno γ kernel as the ground state. This mode is exactly
//     the derivative of the variational SCF energy and is validated against
//     finite-field calculations to machine-ish precision. Its self-consistency
//     is affine in the N atomic response charges, so it is solved directly —
//     one elimination of an N×N system per set of right-hand sides, which
//     every γ-kernel response shares (the field directions, the second-order
//     fields, the nuclear coordinates) — and each field direction runs one
//     cycle.
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
// response directly, so neither has an iteration budget, a tolerance or a
// damping to set.
type Options struct {
	// Deprecated: Mixing is ignored and is no physics option (no store key or
	// wire frame carries it); it survives for bench/microscope.go, as InitP1.
	Mixing float64

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

	// Obs carries the observability handles; each field direction's one DFPT
	// cycle then records a span with its four phase children in execution
	// order (n⁽¹⁾, v⁽¹⁾, H⁽¹⁾, P⁽¹⁾) plus the per-phase histograms
	// (obs.Scope.RecordDFPTCycle). Execution-only: excluded from the store's
	// content fingerprint; the zero Scope disables instrumentation.
	Obs obs.Scope
}

// DefaultOptions returns settings adequate for fragment polarizabilities.
func DefaultOptions() Options {
	return Options{
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
// calculations on models of one size, so that each re-seats the environment on
// its ground state instead of building one; the analytic route's field and
// nuclear responses are then solved on the environment the polarizability
// left. The zero value is ready; one goroutine at a time.
type Workspace struct {
	env  cycleEnv
	p1   [3]*linalg.Matrix
	resp Response
}

// Polarizability is the package function of the same name on the workspace's
// storage: the Response and its P1 matrices belong to the workspace and are
// overwritten by its next call.
func (w *Workspace) Polarizability(m *scf.Model, ground *scf.Result, opt Options) (*Response, error) {
	return w.polarizability(m, ground, opt, nil)
}

// polarizability is Polarizability with grid mode's environment built unless
// the caller (a test) brings one.
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
// ground state's pair space (scf.Susceptibility: the gapped/fractional
// decision, the orbital blocks and pair weights of phase 1, ½S and the
// atom-of-function table of the γ kernel), grid mode's pair list, the bound
// GEMMs and every workspace; a γ-mode Polarizability allocates nothing, and
// neither does re-seating on another ground state of the same basis size.
// Environment buffers are never shared across goroutines and never alias a
// Result or a Response: the solves copy P⁽¹⁾ out.
type cycleEnv struct {
	// Phase 1 builds P⁽¹⁾ = sym(L·(W∘(Lᵀ·H⁽¹⁾·R))·Rᵀ) with the pair space's L,
	// R and W; γ mode's charge closure (closeCharges) reads its K_A, χ and
	// I − χ·Γ, built once per ground state (Build, inside the first
	// direction's n⁽¹⁾ phase).
	scf.Susceptibility

	m    *scf.Model
	grid *gridEnv // nil in γ mode
	n    int      // basis size the buffers below are allocated for

	tmp, u, lu *linalg.Matrix    // Lᵀ·D, the pair block u (∘W, then shifted), L·u
	newP1      *linalg.Matrix    //
	p1Gemms    [4]*linalg.GemmOp // gemm_tn, gemm_nn, gemm_nn, gemm_nt

	// The charge closure's workspaces: the copy of I − χ·Γ it destroys, one
	// potential's Σ_B v_B·K_B, the potentials, N per column, and when its
	// charges and potentials were done.
	fac *linalg.Matrix
	wk  []float64
	v   []float64
	lap [2]time.Time

	// What solveGamma keeps of each field direction for the second-order
	// responses (secondOrder): Δq⁽¹⁾ and the shifted pair block u.
	dq [3][]float64
	u1 [3]linalg.Matrix

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

	h1 *linalg.Matrix // the bare perturbation, D^dir, phase 1's first GEMM reads
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
			n: n, newP1: sq(), h1: sq(), tmp: sq(), u: sq(), lu: sq(),
		}
		u1 := make([]float64, 3*n*n)
		e.u1 = [3]linalg.Matrix{{Data: u1[:n*n]}, {Data: u1[n*n : 2*n*n]}, {Data: u1[2*n*n:]}}
	}
	e.m, e.grid, e.c = m, grid, ground.C
	rebound := e.Seat(m, ground.C, ground.Eps, ground.Occ, ground.Sigma)
	nl, nr := e.Left.Cols, e.Right.Cols
	if e.p1Gemms[0] == nil || rebound {
		reshape(e.tmp, nl, n)
		reshape(e.u, nl, nr)
		reshape(e.lu, n, nr)
		e.p1Gemms = [4]*linalg.GemmOp{
			linalg.BindGemm(true, false, 1, e.Left, e.h1, 0, e.tmp),
			linalg.BindGemm(false, false, 1, e.tmp, e.Right, 0, e.u),
			linalg.BindGemm(false, false, 1, e.Left, e.u, 0, e.lu),
			linalg.BindGemm(false, true, 1, e.lu, e.Right, 0, e.newP1),
		}
	}
	if grid != nil {
		e.seatPairs(nl, nr)
		return
	}
	na := m.NumAtoms()
	if len(e.dq[0]) != na {
		dq := make([]float64, 3*na)
		e.dq, e.v = [3][]float64{dq[:na], dq[na : 2*na], dq[2*na:]}, make([]float64, na)
		e.fac = linalg.NewMatrix(na, na)
	}
	if pairs := nl * nr; cap(e.wk) < pairs {
		e.wk = make([]float64, pairs)
	}
}

// seatPairs lays out grid mode's pair list (see cycleEnv) for nl×nr pair
// weights, allocating only when the pair count grows.
func (e *cycleEnv) seatPairs(nl, nr int) {
	np := nl * nr
	if !e.Gapped {
		np = e.n * (e.n - 1) / 2
	}
	if e.pairSys == nil || cap(e.pairAt) < np {
		e.pairL, e.pairR, e.pairAt = make([]int, np), make([]int, np), make([]int, np)
		e.pairX, e.pairSys = make([]float64, np), linalg.NewMatrix(np, np)
	}
	e.pairL, e.pairR, e.pairAt, e.pairX = e.pairL[:np], e.pairR[:np], e.pairAt[:np], e.pairX[:np]
	reshape(e.pairSys, np, np)
	q := 0
	if e.Gapped {
		for a := 0; a < nl; a++ {
			for i := 0; i < nr; i++ {
				e.pairL[q], e.pairR[q], e.pairAt[q] = e.Idx[a], e.Idx[nl+i], a*nr+i
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

// solveGamma computes γ mode's self-consistent response to a unit field along
// dir and copies P⁽¹⁾ into dst, as one DFPT cycle whose four phases are
// n⁽¹⁾ = the bare field's pair block u = W∘(Lᵀ·D·R) (the first two phase-1
// GEMMs), its charges and the closure's solve for Δq⁽¹⁾, v⁽¹⁾ = Γ·Δq⁽¹⁾,
// H⁽¹⁾ = the pair-space shift u += W∘Σ_B v_B·K_B — after which u is
// W∘(Lᵀ·H⁽¹⁾·R), H⁽¹⁾ = D + ½S∘(V⁽¹⁾_A + V⁽¹⁾_B), without H⁽¹⁾ being
// formed — and P⁽¹⁾ = sym(L·u·Rᵀ) (densityMatrix), whose charges are Δq⁽¹⁾
// to rounding: it is the fixed point of the iterative cycle, not an
// approximation of it within a tolerance. The first direction also builds
// the ground state's system (scf.Susceptibility.Build) inside its n⁽¹⁾ phase;
// Δq⁽¹⁾ and u stay in the environment (dq, u1). No virtual orbitals, a zero
// pivot and a non-finite charge or P⁽¹⁾ are ErrDiverged.
func (e *cycleEnv) solveGamma(dir int, sc obs.Scope, met *PhaseMetrics, dst *linalg.Matrix) error {
	nl, nr := e.Left.Cols, e.Right.Cols
	if nl == 0 {
		return fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, e.n, nr)
	}
	base := time.Now()
	if dir == 0 {
		e.Build(false)
	}
	e.fieldBlock(dir)
	for i, w := range e.W.Data {
		e.u.Data[i] *= w
	}
	dq := e.dq[dir]
	clear(dq)
	q, u := linalg.Matrix{Rows: len(dq), Cols: 1, Data: dq}, [1]*linalg.Matrix{e.u}
	if err := e.closeCharges(&q, u[:], nil); err != nil {
		return err
	}
	tN1, tV1, tH1 := e.lap[0].Sub(base), e.lap[1].Sub(base), time.Since(base)
	reshape(&e.u1[dir], nl, nr)
	e.u1[dir].CopyFrom(e.u)
	e.densityMatrix()
	tP1 := time.Since(base)
	if err := e.emitP1(dst); err != nil {
		return err
	}
	recordCycle(sc, met, base, tN1, tV1, tH1, tP1)
	return nil
}

// closeCharges is the charge closure of every γ-kernel response — the field
// directions (solveGamma), the second-order fields (secondOrder) and the
// nuclear coordinates (nuclear) — for the right-hand sides in the k columns of
// q (N×k), which hold the charges each already knows. u[j] is column j's pair
// block W∘(Lᵀ·h·R) of its bare perturbation h, and row j of w (k×N), unless w
// is nil, the frozen atomic potential it adds. The closure
//
//  1. adds c·K·u[j] and the frozen potential's charges χ·w_j to column j;
//  2. eliminates I − χ·Γ once for all k columns;
//  3. returns a zero pivot or a non-finite charge as ErrDiverged;
//  4. leaves the self-consistent charges Δq in q; and
//  5. adds W∘Σ_B (w_B + v_B)·K_B, v = Γ·Δq, to each u[j], which makes it the
//     pair block W∘(Lᵀ·H·R) of the full perturbation H = h + ½S∘(w_A + w_B +
//     v_A + v_B).
//
// It stamps e.lap after step 4 and after v: solveGamma's phase clocks.
func (e *cycleEnv) closeCharges(q *linalg.Matrix, u []*linalg.Matrix, w *linalg.Matrix) error {
	na, k := q.Rows, q.Cols
	pairs := len(e.W.Data)
	for j := 0; j < k; j++ {
		for a := 0; a < na; a++ {
			x := e.ChargeMul * linalg.Dot(e.K[a*pairs:(a+1)*pairs], u[j].Data)
			if w != nil {
				x += linalg.Dot(e.Chi.Row(a), w.Row(j))
			}
			q.Data[a*k+j] += x
		}
	}
	e.fac.CopyFrom(e.Sys)
	if err := linalg.SolveLinearColumnsInPlace(e.fac, q); err != nil {
		return fmt.Errorf("%w: zero pivot in the charge response system", ErrDiverged)
	}
	if !finite(q.Data) {
		return fmt.Errorf("%w: non-finite response charge", ErrDiverged)
	}
	e.lap[0] = time.Now()
	if cap(e.v) < na*k {
		e.v = make([]float64, na*k)
	}
	v := e.v[:na*k]
	for j := 0; j < k; j++ {
		vj := v[j*na : (j+1)*na]
		for a := range vj {
			var s float64
			for b, g := range e.m.Gamma.Row(a) {
				s += g * q.Data[b*k+j]
			}
			if w != nil {
				s += w.At(j, a)
			}
			vj[a] = s
		}
	}
	e.lap[1] = time.Now()
	wk := e.wk[:pairs]
	for j, uj := range u {
		clear(wk)
		for b, x := range v[j*na : (j+1)*na] {
			linalg.Axpy(x, e.K[b*pairs:(b+1)*pairs], wk)
		}
		for i, x := range e.W.Data {
			uj.Data[i] += x * wk[i]
		}
	}
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
	nl, nr := e.Left.Cols, e.Right.Cols
	if nl == 0 {
		return fmt.Errorf("%w: no virtual orbitals (basis %d, occupied %d)", ErrDiverged, e.n, nr)
	}
	g := e.grid
	base := time.Now()
	if dir == 0 {
		if !finite(e.c.Data) || !finite(e.W.Data) {
			return fmt.Errorf("%w: non-finite orbital coefficient or pair weight", ErrDiverged)
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

	e.fieldBlock(dir)
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
	recordCycle(sc, met, base, tN1, tV1, tH1, tP1)
	return nil
}

// solvePairs turns u = Lᵀ·D·R into the pair coefficients of the
// self-consistent response: it solves (I − 2·diag(W)·mc)·x = W∘b over the
// pair list, b the pairs' entries of u, and writes x back as u (both places
// of a fractional pair, zero elsewhere). A zero pivot is ErrDiverged.
func (e *cycleEnv) solvePairs(mc *linalg.Matrix) error {
	x := e.pairX
	for q, at := range e.pairAt {
		w := e.W.Data[at]
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
		if !e.Gapped {
			e.u.Data[e.pairR[q]*e.n+e.pairL[q]] = x[q]
		}
	}
	return nil
}

// emitP1 copies newP1 into dst unless it holds a non-finite entry, which is
// ErrDiverged.
func (e *cycleEnv) emitP1(dst *linalg.Matrix) error {
	if !finite(e.newP1.Data) {
		return fmt.Errorf("%w: non-finite P1", ErrDiverged)
	}
	dst.CopyFrom(e.newP1)
	return nil
}

// recordCycle adds one direction's cycle — its phase boundaries as offsets
// from base — to met and records it on sc.
func recordCycle(sc obs.Scope, met *PhaseMetrics, base time.Time, tN1, tV1, tH1, tP1 time.Duration) {
	durs := [obs.NumPhases]time.Duration{
		obs.PhaseN1: tN1, obs.PhaseV1: tV1 - tN1, obs.PhaseH1: tH1 - tV1, obs.PhaseP1: tP1 - tH1,
	}
	met.TimeN1 += durs[obs.PhaseN1]
	met.TimeV1 += durs[obs.PhaseV1]
	met.TimeH1 += durs[obs.PhaseH1]
	met.TimeP1 += durs[obs.PhaseP1]
	sc.RecordDFPTCycle(base, durs, tP1)
}

// fieldBlock sets u = Lᵀ·D^dir·R, the pair block of the bare field along dir
// (+D^dir per unit field, electron charge −1).
func (e *cycleEnv) fieldBlock(dir int) {
	e.h1.CopyFrom(e.m.Dip[dir])
	e.p1Gemms[0].Run() // tmp = Lᵀ·D
	e.p1Gemms[1].Run() // u = tmp·R
}

// densityMatrix builds newP1 = sym(L·u·Rᵀ) from the pair coefficients in u.
func (e *cycleEnv) densityMatrix() {
	e.p1Gemms[2].Run() // lu = L·u
	e.p1Gemms[3].Run() // newP1 = lu·Rᵀ
	if !e.Gapped {
		// The symmetric partner (q,p) carries the same weight, so P⁽¹⁾ is
		// symmetric up to rounding.
		e.newP1.Symmetrize()
		return
	}
	e.newP1.AddTranspose() // P⁽¹⁾ = Z + Zᵀ
}

// finite reports whether every entry of xs is finite.
func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
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
