package scf

import (
	"errors"
	"fmt"
	"math"
	"time"

	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
)

// Options configures the SCF iteration.
type Options struct {
	// MaxIter bounds the charge self-consistency loop.
	MaxIter int
	// Tol is the convergence threshold on the max charge change.
	Tol float64
	// Mixing is the linear charge-mixing factor in (0,1].
	Mixing float64
	// Smearing is the Fermi–Dirac electronic temperature in hartree.
	// Fractional occupations stabilize small-gap fragments (some capped
	// peptide fragments develop near-degenerate frontier orbitals in this
	// model) and regularize the DFPT denominators; for well-gapped systems
	// the occupations are numerically integral and results are unchanged.
	// Energies are then Mermin free energies (see Result.EEntropy).
	Smearing float64
	// Field is a uniform external electric field (a.u.); the electronic
	// Hamiltonian gains +E·D (electron charge −1), used by the
	// finite-field polarizability validation.
	Field geom.Vec3
	// InitDeltaQ warm-starts the charge loop (e.g. with the converged
	// charges of the undisplaced reference geometry — the displacement
	// loop's dominant speedup). Must have one entry per atom; nil starts
	// from neutral atoms.
	InitDeltaQ []float64
	// Obs carries the observability handles (span tracer, metrics
	// registry, per-fragment accumulator). Execution-only: it never
	// affects a converged result and is excluded from the store's content
	// fingerprint. The zero Scope disables instrumentation.
	Obs obs.Scope
}

// DefaultOptions returns robust SCF settings: conservative mixing converges
// across the full range of fragment sizes (small-gap peptide fragments
// oscillate at aggressive mixing).
func DefaultOptions() Options {
	return Options{MaxIter: 500, Tol: 1e-9, Mixing: 0.2, Smearing: 0.002}
}

// Result holds a converged ground state.
type Result struct {
	Energy   float64 // Mermin free energy (hartree): EBand+ECoul+ERep+EEntropy
	EBand    float64 // tr(P·H0)
	ECoul    float64 // ½ Σ γ Δq Δq
	ERep     float64 // bonded reference potential
	EEntropy float64 // −T·S electronic entropy term (≤ 0)

	Eps   []float64      // orbital energies, ascending
	Occ   []float64      // occupations in [0,2]
	Mu    float64        // Fermi level (hartree)
	Sigma float64        // the smearing the state was computed with
	C     *linalg.Matrix // S-orthonormal MO coefficients (columns)
	P     *linalg.Matrix // density matrix
	W     *linalg.Matrix // energy-weighted density matrix

	DeltaQ     []float64 // per-atom electron excess n_A − Z_A
	Iterations int       // charge-map evaluations, one eigensolve each
	Gap        float64   // nominal HOMO–LUMO gap (hartree); 0 if no virtuals
}

// ErrNotConverged reports that the charge loop used up its iterations. It is
// a deterministic outcome of the fragment and its options: the smearing
// ladders escalate on it, the runtime (faults.Classify) never retries it.
var ErrNotConverged = errors.New("scf: not converged")

// NumOcc returns the number of doubly occupied orbitals.
func (m *Model) NumOcc() int { return m.numElectrons() / 2 }

// SolveSCF runs the charge self-consistency loop to convergence: the one-shot
// form of Workspace.Solve. The Result owns its storage.
func (m *Model) SolveSCF(opt Options) (*Result, error) {
	res, err := NewWorkspace(m).Solve(m, opt)
	if err != nil {
		return nil, err
	}
	out := *res // detached from the workspace, which is garbage from here on
	return &out, nil
}

// Workspace owns everything a charge loop needs for models of one size: the
// Cholesky reduction of the geometry, the n×n buffers of an iteration, its
// bound GEMMs, the eigensolver's storage, the Newton step's susceptibility,
// the mixer's ring, and the Result it hands out. SolveSCF makes one for a
// single solve; repeated solves of models of one size in one workspace
// allocate nothing. A Workspace is used by one goroutine at a time.
//
// The generalized eigenproblem H·C = S·C·ε is reduced once per solve by
// S = L·Lᵀ and X = L⁻ᵀ (Xᵀ·S·X = I, S·X = L). The Hamiltonian is affine in the
// atomic potentials v, H(v) = H0 + hExt + ½(D·S + S·D) with D the diagonal of
// each function's atomic potential, so its reduced form is
// H̃(v) = H̃₀ + M + Mᵀ with H̃₀ = Xᵀ·(H0 + hExt)·X, built in prepare, and
// M = L⁻¹·(½D)·L, lower triangular: an iteration builds H̃ in n³/6
// multiply-adds, diagonalizes it once, and forms C = X·Y, P and the charges.
//
// Each iteration then takes a Newton step on the charge map F (newtonStep):
// the Jacobian ∂F/∂Δq = χ·Γ is built in closed form from the eigenpairs the
// same evaluation has just produced, so the step costs no eigensolve. The
// loop keeps taking them while max|F(Δq) − Δq| decreases; the first that
// does not, a zero pivot or a non-finite step hands the iterate to the Pulay
// mixer for the rest of the solve (obs.MetricSCFNewtonFallbacks).
type Workspace struct {
	n, na int
	eig   *linalg.EigSymWork

	l, linv, hExt *linalg.Matrix // S = L·Lᵀ, L⁻¹ = Xᵀ, the field term
	ht0, ht, tmp  *linalg.Matrix // H̃₀, H̃(v), prepare's L⁻¹·(H0 + hExt)
	y, c, p, w    *linalg.Matrix
	ga, gb        *linalg.Matrix // gatherOccupied's outputs
	eps, occ      []float64
	v, dq, newDq  []float64
	hv, mrow      []float64      // ½v of each function's atom; one row of M
	step          []float64      // the Newton step, first F(dq) − dq
	chi           Susceptibility // the Newton step's Jacobian
	lh, lhl, xy   *linalg.GemmOp // L⁻¹·(H0 + hExt), (L⁻¹·H)·L⁻ᵀ, C = L⁻ᵀ·Y
	pGemm, wGemm  *linalg.GemmOp // P and W = gb·gaᵀ, bound to gemmCols columns
	gemmCols      int
	mixer         *Pulay
	fermiEvals    int
	res           Result
}

// minOverlapPivot is the smallest Cholesky pivot L_ii² of the overlap matrix a
// solve accepts: the basis functions are normalized (S_ii = 1), so a pivot this
// small means one function is a combination of the others to ten digits.
const minOverlapPivot = 1e-10

// NewWorkspace returns a workspace for models with m's basis size and atom
// count.
func NewWorkspace(m *Model) *Workspace {
	n, na := m.Basis.Size(), m.NumAtoms()
	sq := func() *linalg.Matrix { return linalg.NewMatrix(n, n) }
	ws := &Workspace{
		n: n, na: na, eig: linalg.NewEigSymWork(n),
		l: sq(), linv: sq(), hExt: sq(), ht0: sq(), ht: sq(), tmp: sq(),
		y: sq(), c: sq(), p: sq(), w: sq(), ga: sq(), gb: sq(),
		eps: make([]float64, n), occ: make([]float64, n),
		v: make([]float64, na), dq: make([]float64, na), newDq: make([]float64, na),
		hv: make([]float64, n), mrow: make([]float64, n),
		gemmCols: -1,
		mixer:    NewPulay(na, 0),
		step:     make([]float64, na),
	}
	ws.lh = linalg.BindGemm(false, false, 1, ws.linv, ws.ht, 0, ws.tmp)
	ws.lhl = linalg.BindGemm(false, true, 1, ws.tmp, ws.linv, 0, ws.ht0)
	ws.xy = linalg.BindGemm(true, false, 1, ws.linv, ws.y, 0, ws.c)
	return ws
}

// Solve runs the charge self-consistency loop of m to convergence. The Result
// and everything it points to belong to the workspace and are overwritten by
// its next Solve.
func (ws *Workspace) Solve(m *Model, opt Options) (*Result, error) {
	return ws.solve(m, opt, true)
}

// solve is Solve; with newton false it runs the Pulay mixer from the first
// iteration (the tests' reference loop).
func (ws *Workspace) solve(m *Model, opt Options, newton bool) (*Result, error) {
	var obsStart time.Time
	if opt.Obs.Enabled() {
		obsStart = time.Now()
	}
	n, na := ws.n, ws.na
	if opt.InitDeltaQ != nil && len(opt.InitDeltaQ) != na {
		return nil, fmt.Errorf("scf: InitDeltaQ has %d entries for %d atoms", len(opt.InitDeltaQ), na)
	}
	if err := ws.prepare(m, opt); err != nil {
		return nil, err
	}
	nocc := m.NumOcc()
	dq, newDq := ws.dq, ws.newDq
	clear(dq)
	copy(dq, opt.InitDeltaQ)

	ws.fermiEvals = 0
	ws.mixer.Reset(opt.Mixing)
	newtonSteps := 0
	prevDelta := math.Inf(1)
	for iter := 1; iter <= opt.MaxIter; iter++ {
		mu, entropy, err := ws.chargeMap(m, opt, dq, newDq)
		if err != nil {
			return nil, err
		}

		var maxDelta float64
		for a := range dq {
			if d := math.Abs(newDq[a] - dq[a]); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < opt.Tol {
			// Converged: assemble the result from the final orbitals using
			// the self-consistent charges.
			eps, occ, c, p := ws.eps, ws.occ, ws.c, ws.p
			gatherOccupied(c, occ, eps, ws.ga, ws.gb)
			ws.wGemm.Run()
			ws.res = Result{
				Eps: eps, Occ: occ, Mu: mu, Sigma: opt.Smearing,
				C: c, P: p, W: ws.w,
				DeltaQ:     newDq,
				Iterations: iter,
			}
			res := &ws.res
			res.EBand = traceProduct(p, m.H0) + traceProduct(p, ws.hExt)
			res.ECoul = m.coulombEnergy(newDq)
			res.ERep = m.repulsiveEnergy()
			res.EEntropy = entropy
			res.Energy = res.EBand + res.ECoul + res.ERep + res.EEntropy
			if nocc > 0 && nocc < n {
				res.Gap = eps[nocc] - eps[nocc-1]
			}
			if opt.Obs.Enabled() {
				opt.Obs.RecordSCF(obsStart, iter, ws.fermiEvals, newtonSteps)
			}
			return res, nil
		}
		if newton {
			// The residual need not halve: far from the fixed point a Newton
			// step may shrink it by only 20 % before the quadratic phase.
			if maxDelta < prevDelta && ws.newtonStep(m, opt, dq, newDq) {
				prevDelta = maxDelta
				newtonSteps++
				continue
			}
			newton = false
			if opt.Obs.Hot != nil {
				opt.Obs.Hot.SCFNewtonFallbacks.Inc()
			}
		}
		ws.mixer.Next(dq, newDq, dq)
	}
	// Failed solves are recorded too: a rung of the smearing ladder that
	// burns MaxIter iterations is exactly the cost a straggler report must
	// see.
	if opt.Obs.Enabled() {
		opt.Obs.RecordSCF(obsStart, opt.MaxIter, ws.fermiEvals, newtonSteps)
	}
	return nil, fmt.Errorf("%w after %d iterations", ErrNotConverged, opt.MaxIter)
}

// newtonStep takes the Newton step of the charge loop at dq, whose image
// newDq = F(dq) the workspace's eigenpairs were just evaluated for: it solves
// (I − χ·Γ)·s = F(dq) − dq, χ the static susceptibility of those eigenpairs
// (Susceptibility.Build(true), whose χ·Γ is the Jacobian ∂F/∂dq), in one
// single-column elimination, and sets dq += s. A zero pivot or a non-finite
// step leaves dq alone and returns false.
func (ws *Workspace) newtonStep(m *Model, opt Options, dq, newDq []float64) bool {
	ws.chi.Seat(m, ws.c, ws.eps, ws.occ, opt.Smearing)
	ws.chi.Build(true)
	s := ws.step
	for a := range s {
		s[a] = newDq[a] - dq[a]
	}
	// Build rebuilds the system at every step, so the elimination may
	// destroy it.
	col := linalg.Matrix{Rows: len(s), Cols: 1, Data: s}
	if linalg.SolveLinearColumnsInPlace(ws.chi.Sys, &col) != nil {
		return false
	}
	for _, x := range s {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	for a := range dq {
		dq[a] += s[a]
	}
	return true
}

// prepare validates the options against the model and fills what is fixed
// across the charge loop: the field term, S = L·Lᵀ, L⁻¹ and H̃₀.
func (ws *Workspace) prepare(m *Model, opt Options) error {
	if opt.MaxIter <= 0 || opt.Tol <= 0 || opt.Mixing <= 0 || opt.Mixing > 1 {
		return fmt.Errorf("scf: invalid options (MaxIter %d, Tol %g, Mixing %g, Smearing %g)",
			opt.MaxIter, opt.Tol, opt.Mixing, opt.Smearing)
	}
	n, na := ws.n, ws.na
	if m.Basis.Size() != n || m.NumAtoms() != na {
		return fmt.Errorf("scf: workspace for %d functions on %d atoms given a model with %d on %d",
			n, na, m.Basis.Size(), m.NumAtoms())
	}
	if nocc := m.NumOcc(); nocc > n {
		return fmt.Errorf("scf: %d occupied orbitals exceed basis size %d", nocc, n)
	}
	// External field term: +Σ_k E_k D^k.
	ws.hExt.Zero()
	for k, e := range [3]float64{opt.Field.X, opt.Field.Y, opt.Field.Z} {
		if e != 0 {
			ws.hExt.AddMatrix(m.Dip[k], e)
		}
	}
	// The overlap matrix is fixed across the charge loop: reduce once, then
	// each iteration is a plain symmetric eigensolve of H̃(v) with C = X·Y.
	if err := linalg.CholeskyInto(ws.l, m.S, minOverlapPivot); err != nil {
		return fmt.Errorf("scf: overlap matrix near-singular: %w", err)
	}
	linalg.InvertLowerInto(ws.linv, ws.l)
	ws.ht.CopyFrom(m.H0)
	ws.ht.AddMatrix(ws.hExt, 1)
	ws.lh.Run()
	ws.lhl.Run()
	ws.ht0.Symmetrize()
	return nil
}

// chargeMap evaluates the fixed-point map of the charge loop, out = F(dq):
// the Hamiltonian of the input charges, its orbitals and occupations, the
// density matrix and its Mulliken charges. The orbitals, occupations and
// density stay in the workspace (eps, occ, c, p) for the caller; the Fermi
// level and the entropy term are returned.
func (ws *Workspace) chargeMap(m *Model, opt Options, dq, out []float64) (mu, entropy float64, err error) {
	m.sccPotential(dq, ws.v)
	ws.reducedHamiltonian(m)
	if err := ws.eig.Solve(ws.ht, ws.eps, ws.y); err != nil {
		return 0, 0, fmt.Errorf("scf: Hamiltonian eigensolve: %w", err)
	}
	ws.xy.Run()
	mu, entropy, evals := occupations(ws.eps, 2*m.NumOcc(), opt.Smearing, ws.occ)
	ws.fermiEvals += evals
	// P = (f∘C_occ)·C_occᵀ, rebound when the number of occupied columns
	// changes (between iterations it almost never does); W shares the shape.
	gatherOccupied(ws.c, ws.occ, nil, ws.ga, ws.gb)
	if ws.gemmCols != ws.ga.Cols {
		ws.pGemm = linalg.BindGemm(false, true, 1, ws.gb, ws.ga, 0, ws.p)
		ws.wGemm = linalg.BindGemm(false, true, 1, ws.gb, ws.ga, 0, ws.w)
		ws.gemmCols = ws.ga.Cols
	}
	ws.pGemm.Run()
	m.mullikenDeltaQ(ws.p, out)
	return mu, entropy, nil
}

// reducedHamiltonian sets ht = H̃(v) = H̃₀ + M + Mᵀ for the atomic potentials
// in ws.v, where M = L⁻¹·(½D)·L is the reduced SCC term (see Workspace). Row i
// of M is Σ_{k≤i} L⁻¹_ik·½v_k·L_k,: over columns ≤ k, so M is built a row at a
// time and written to row and column i of ht at once.
func (ws *Workspace) reducedHamiltonian(m *Model) {
	n := ws.n
	for i := range m.Basis.Funcs {
		ws.hv[i] = 0.5 * ws.v[m.Basis.Funcs[i].Atom]
	}
	for i := 0; i < n; i++ {
		mi := ws.mrow[:i+1]
		clear(mi)
		for k, a := range ws.linv.Row(i)[:i+1] {
			a *= ws.hv[k]
			mk := mi[:k+1]
			for j, lkj := range ws.l.Row(k)[:len(mk)] {
				mk[j] += a * lkj
			}
		}
		h0i, hi := ws.ht0.Row(i), ws.ht.Row(i)
		for j, mij := range mi[:i] {
			v := h0i[j] + mij
			hi[j] = v
			ws.ht.Data[j*n+i] = v
		}
		hi[i] = h0i[i] + 2*mi[i]
	}
}

// SolveSCFRobust is SolveSCF with the standard escalation ladder for
// difficult fragments: if the charge loop fails to converge, the electronic
// temperature is raised (2.5×, then 5×, then 10×) — higher smearing smooths
// the charge-sloshing instabilities of near-degenerate frontier orbitals at
// the cost of slightly more fractional occupations. Each rung above the
// first is counted (obs.MetricSCFSmearingEscalations) when Obs is enabled.
func (m *Model) SolveSCFRobust(opt Options) (*Result, error) {
	var firstErr error
	for rung, scale := range []float64{1, 2.5, 5, 10} {
		o := opt
		o.Smearing = opt.Smearing * scale
		if o.Smearing == 0 && scale > 1 {
			o.Smearing = 0.002 * scale
		}
		if rung > 0 && opt.Obs.Hot != nil {
			opt.Obs.Hot.SCFSmearingEscalations.Inc()
		}
		res, err := m.SolveSCF(o)
		if err == nil {
			return res, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// sccPotential fills v with V_A = Σ_B γ_AB Δq_B for the given charges.
func (m *Model) sccPotential(dq, v []float64) {
	for a := range v {
		var s float64
		for b, g := range m.Gamma.Row(a) {
			s += g * dq[b]
		}
		v[a] = s
	}
}

// fermiTol is the relative electron-count error at which the Fermi-level
// search stops: |N(μ) − Nₑ| ≤ fermiTol·Nₑ.
const fermiTol = 1e-13

// occupations fills occ with the occupations of ne electrons over the
// ascending levels eps. With zero smearing the lowest ne/2 orbitals get
// occupation 2; otherwise Fermi–Dirac occupations at electronic temperature
// sigma are used. It returns the Fermi level, the electronic-entropy
// free-energy term −T·S (≤ 0) and the number of electron counts N(μ) the
// search evaluated.
//
// The search stops once the electrons are counted, not once μ is resolved to
// its last ulp: inside a gap N(μ) equals Nₑ to rounding over an interval many
// σ wide, every μ in it gives the same physics, and the search starts at the
// gap's midpoint — a gapped fragment leaves after one count. Otherwise the
// bracket [lo, hi] is kept around the root and narrowed by a Newton step where
// the slope dN/dμ puts one strictly inside it and has at least halved the
// previous step, by bisection where it does not; a bracket that has collapsed
// to neighbouring floats ends the search wherever the count stands (an
// all-occupied spectrum asks for μ beyond the bracket).
func occupations(eps []float64, ne int, sigma float64, occ []float64) (mu, entropy float64, evals int) {
	n := len(eps)
	nocc := ne / 2
	if nocc > 0 {
		mu = eps[nocc-1]
		if nocc < n {
			mu = 0.5 * (eps[nocc-1] + eps[nocc])
		}
	}
	if sigma <= 0 {
		for i := range occ {
			occ[i] = 0
			if i < nocc {
				occ[i] = 2
			}
		}
		return mu, 0, 0
	}
	lo, hi := eps[0]-30*sigma, eps[n-1]+30*sigma
	if nocc == 0 {
		mu = lo
	}
	target := float64(ne)
	step := hi - lo
	// A healthy search ends long before the cap; it bounds one fed NaN levels.
	for evals < 200 {
		// N(μ) and its slope, with the occupations left in occ.
		var count, slope float64
		for i, e := range eps {
			g := 1 / (1 + math.Exp((e-mu)/sigma)) // per-spin occupation
			occ[i] = 2 * g
			count += 2 * g
			slope += g * (1 - g)
		}
		slope *= 2 / sigma
		evals++
		diff := count - target
		if math.Abs(diff) <= fermiTol*target {
			break
		}
		if diff < 0 {
			lo = mu
		} else {
			hi = mu
		}
		next := mu - diff/slope
		if !(next > lo && next < hi) || math.Abs(next-mu) > 0.5*step {
			next = 0.5 * (lo + hi)
			if next == lo || next == hi {
				break
			}
		}
		step = math.Abs(next - mu)
		mu = next
	}
	for _, f := range occ {
		if g := 0.5 * f; g > 1e-14 && g < 1-1e-14 {
			entropy += 2 * sigma * (g*math.Log(g) + (1-g)*math.Log(1-g))
		}
	}
	return mu, entropy, evals
}

// gatherOccupied fills ga with the columns c_p of the orbitals with
// non-negligible occupation and gb with f_p·c_p (f_p·ε_p·c_p when eps is
// given), so that gb·gaᵀ = Σ_p f_p (ε_p) c_p c_pᵀ is the density matrix P
// (the energy-weighted density matrix W). ga and gb are workspaces with room
// for every column of c, reshaped here to the occupied ones; reshaped reports
// that their column count changed.
func gatherOccupied(c *linalg.Matrix, occ, eps []float64, ga, gb *linalg.Matrix) (reshaped bool) {
	n := c.Rows
	ncols := 0
	for _, f := range occ {
		if f > 1e-14 {
			ncols++
		}
	}
	reshaped = ga.Cols != ncols
	ga.Cols, ga.Data = ncols, ga.Data[:n*ncols]
	gb.Cols, gb.Data = ncols, gb.Data[:n*ncols]
	for i := 0; i < n; i++ {
		crow, arow, brow := c.Row(i), ga.Row(i), gb.Row(i)
		j := 0
		for k, f := range occ {
			if !(f > 1e-14) {
				continue
			}
			v := crow[k]
			arow[j] = v
			wv := f * v
			if eps != nil {
				wv *= eps[k]
			}
			brow[j] = wv
			j++
		}
	}
	return reshaped
}

// mullikenDeltaQ fills out with the per-atom electron excess n_A − Z_A,
// n_A = Σ_{μ∈A} (P·S)_μμ.
func (m *Model) mullikenDeltaQ(p *linalg.Matrix, out []float64) {
	m.populations(p, out)
	for a := range out {
		out[a] -= m.Zval[a]
	}
}

func (m *Model) coulombEnergy(dq []float64) float64 {
	var e float64
	na := m.NumAtoms()
	for a := 0; a < na; a++ {
		for b := 0; b < na; b++ {
			e += 0.5 * dq[a] * m.Gamma.At(a, b) * dq[b]
		}
	}
	return e
}

func (m *Model) repulsiveEnergy() float64 {
	var e float64
	for _, b := range m.Bonds {
		d := m.Pos[b.I].Dist(m.Pos[b.J]) - b.R0
		e += 0.5*b.K*d*d + b.C*d
	}
	for _, a := range m.Angles {
		u := m.Pos[a.I].Sub(m.Pos[a.J]).Normalize()
		v := m.Pos[a.Kk].Sub(m.Pos[a.J]).Normalize()
		d := u.Dot(v) - a.Cos0
		e += 0.5*a.K*d*d + a.C*d
	}
	for _, t := range m.Dihedrals {
		d := dihedralDelta(m.Pos[t.I], m.Pos[t.J], m.Pos[t.Kk], m.Pos[t.L], t.Phi0)
		e += 0.5*t.K*d*d + t.C*d
	}
	return e
}

// traceProduct returns tr(A·B) for symmetric-compatible shapes.
func traceProduct(a, b *linalg.Matrix) float64 {
	if a.Rows != b.Cols || a.Cols != b.Rows {
		panic("scf: traceProduct shape mismatch")
	}
	var s float64
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j, av := range arow {
			s += av * b.At(j, i)
		}
	}
	return s
}

// Dipole returns the molecular dipole moment μ = Σ_A Z_A R_A − tr(P·D) in
// atomic units (electron charge −1).
func (m *Model) Dipole(res *Result) geom.Vec3 {
	var mu geom.Vec3
	for a := range m.Els {
		mu = mu.Add(m.Pos[a].Scale(m.Zval[a]))
	}
	return mu.Sub(geom.V(
		traceProduct(res.P, m.Dip[0]),
		traceProduct(res.P, m.Dip[1]),
		traceProduct(res.P, m.Dip[2]),
	))
}
