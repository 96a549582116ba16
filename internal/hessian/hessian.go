// Package hessian computes per-fragment Hessians and polarizability
// derivatives (paper §V, Eq. 2–3) and assembles the signed fragment
// contributions (Eq. 1) into the global sparse mass-weighted Hessian and the
// global ∂α/∂ξ vectors that feed the Raman solver. A fragment whose ground
// state is gapped takes all three at its reference geometry, from the
// coupled-perturbed response to the field and to its 3N nuclear coordinates:
// no displaced solve; in grid mode the ∂α is the adjoint of the grid response
// at the reference (dfpt.GridAlphaDerivatives). The rest run the paper's
// displacement loop, where each displacement is one job — an SCF ground
// state, analytic forces and a DFPT polarizability at the displaced geometry
// — and take central differences: fractional ground states, states in a
// field, and grid mode's degenerate levels. The loop runs its jobs in order on
// the calling goroutine; a fragment's parallelism is the par kernel budget.
package hessian

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"qframan/internal/constants"
	"qframan/internal/dfpt"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// DefaultStep is the displacement loop's finite-difference step in bohr.
const DefaultStep = 5e-3

// AlphaComponents enumerates the six independent polarizability components
// in the order (xx, yy, zz, xy, xz, yz).
var AlphaComponents = [6][2]int{{0, 0}, {1, 1}, {2, 2}, {0, 1}, {0, 2}, {1, 2}}

// DisplacementResult is the output of one displacement job: forces, dipole
// moment, and polarizability at a single displaced geometry.
type DisplacementResult struct {
	Atom, Axis int
	Sign       int // +1 or −1
	Forces     []geom.Vec3
	Dipole     geom.Vec3
	Alpha      [3][3]float64
}

// EngineVersion names the arithmetic of the fragment engine — scf, dfpt and
// this package's displacement loop — as far as it can move a bit of a
// FragmentData. internal/store hashes it into the content key of every job,
// so a record computed by another engine version is never served to this one.
// Bump it with any change that moves results without changing an option (a
// mixer, a stopping rule, a reassociated sum); a change confined to
// internal/poisson bumps poisson.SolverTag instead, which moves only
// grid-mode keys.
//
// engine/14: every charge loop takes Newton steps with the exact Jacobian χ·Γ
// of its own latest eigenpairs (scf.Workspace) until the residual stops
// decreasing, then hands over to the Pulay mixer; the displaced solves' chord
// matrix of the reference is gone. Ground states move within Tol, which moves
// the analytic Hessian, ∂α and ∂μ by ≤ 7e-8 of their largest entries (glycine)
// and the displacement loop's by ≤ 1.2e-7 (the σ = 0.05 dimer); for a given
// ground state, DFPT keeps every bit.
// engine/13: every γ-kernel response closes its charges in one place and
// takes its response potential in pair space (no dense H⁽¹⁾ re-projected; the
// six second-order fields one elimination), and the field derivatives take the
// charges the responses were solved with. Reordered sums move γ-mode α, ∂α,
// ∂μ and the analytic Hessian at rounding; the chord matrix and the SCF keep
// every bit.
// engine/12: the analytic route's nuclear responses and Hessian are
// contracted atom-locally — each ∂S/∂R_c through its moved atom's row block,
// the response kept as factors, the Hessian's response term in pair space,
// its explicit ∂²S term summed per atom pair — instead of through dense n×n
// matrices per coordinate and per-function-pair updates. Reordered sums move
// the analytic Hessian by ≤ 3e-16 and grid mode's ∂α by ≤ 1e-15 of their
// largest entries; γ-mode ∂μ and ∂α and the displacement loop keep every bit.
// engine/11: every job of the displacement loop starts its SCF from the
// reference charges q₀; a −Step job no longer starts from its +Step partner's
// predictor 2·q₀ − q₊, which moves the loop's results within Tol. Analytic
// routes keep every bit.
// engine/10: a gapped, field-free ground state with split levels in grid mode
// takes its Hessian and ∂μ from the γ-route analytic data and its ∂α from the
// adjoint of the grid response's pair-space system at the reference geometry,
// corrected for the grid's origin following the lowest atom, instead of
// central differences of 6N displaced SCF + grid solves (∂α moves by the
// loop's O(Step²), the Hessian by its O(Step²)). γ-mode results, fractional
// ground states and grid mode's degenerate levels keep every bit.
// engine/9: a gapped, field-free ground state in γ mode (or one that wants
// no ∂α) takes its Hessian analytically at the reference geometry, the
// nuclear derivative of the force expression from the coupled-perturbed
// response to the 3N coordinates, instead of central differences of 6N
// displaced SCF solves (the Hessian moves by O(Step²)); the reference SCF is
// the calibration's when their options agree (bit for bit the same solve).
// Grid mode's finite-difference ∂α and fractional ground states keep the
// displacement loop and every bit.
// engine/8: grid-mode DFPT solves its response directly in orbital-pair
// space (one Poisson solve per pair, one linear system per field direction)
// instead of iterating it with the Pulay mixer, which moves grid-mode α
// within the old loop's Tol; γ-mode results keep every bit.
// engine/7: in γ mode a gapped fragment's dipole and polarizability
// derivatives are analytic at the reference geometry (the field derivatives of
// the force expression, from the first- and second-order field responses)
// instead of central differences of 6N displaced DFPT solves; the Hessian
// keeps its bits, and grid mode, fractional ground states and SkipAlpha keep
// the finite differences.
// engine/6: the displaced charge loops' chord matrix is dfpt.ChordMatrix's
// closed-form (I − χ·Γ)⁻¹ (N forward differences of the charge map before),
// which moves the converged charges within Tol.
// engine/5: the charge loop reduces H·C = S·C·ε by a Cholesky factor of S
// (Löwdin before) with the reduced Hamiltonian affine in the atomic
// potentials, QL rotations take a guarded √(f²+g²) instead of math.Hypot and
// finish a sweep that ends on an exactly zero rotation value, a displacement
// pair's −Step solve starts from 2·q₀ − q₊, and the bonded potential's
// dihedral gradient is analytic instead of a central difference.
// engine/4: γ-mode DFPT solves the response in the atom-charge space
// (one N×N system per field direction) instead of iterating it.
// engine/3: displaced charge loops start as a chord-Newton iteration on the
// reference's charge susceptibility (scf.Options.Chord); the Pulay mixer
// extrapolates over the numerically independent part of its history only.
// engine/2: Pulay mixing in the DFPT cycle, Fermi search that stops once the
// electrons are counted. (engine/1, never hashed: linear response mixing,
// Fermi level bisected to the last ulp.)
const EngineVersion = "engine/14"

// JobOptions bundles the solver settings of a displacement job.
type JobOptions struct {
	Step float64
	SCF  scf.Options
	DFPT dfpt.Options
	// SkipAlpha disables the DFPT part (pure Hessian runs).
	SkipAlpha bool
	// Obs carries the observability handles of the executing attempt;
	// RunDisplacement and SolveReference derive the SCF/DFPT scopes from it.
	// Execution-only: excluded from the store's content fingerprint.
	Obs obs.Scope
}

// DefaultJobOptions returns production settings (γ-mode DFPT for speed and
// variational consistency; the grid mode is exercised by the performance
// benchmarks).
func DefaultJobOptions() JobOptions {
	return JobOptions{
		Step: DefaultStep,
		SCF:  scf.DefaultOptions(),
		DFPT: dfpt.DefaultOptions(),
	}
}

// RunDisplacement executes one job of the displacement loop on the
// fragment model m, which it only reads: SCF ground state, forces, dipole and
// (unless SkipAlpha) DFPT polarizability with the atom moved by sign·Step
// along axis, on a model rebuilt at that geometry (scf.Model.Displaced). Set
// opt.SCF.InitDeltaQ to the reference geometry's converged charges to
// warm-start the displaced SCF (the displacement is tiny, so the charges
// barely move).
func RunDisplacement(m *scf.Model, atom, axis, sign int, opt JobOptions) (*DisplacementResult, error) {
	switch {
	case sign != 1 && sign != -1:
		return nil, fmt.Errorf("hessian: sign must be ±1, got %d", sign)
	case atom < 0 || atom >= m.NumAtoms():
		return nil, fmt.Errorf("hessian: atom %d outside [0, %d)", atom, m.NumAtoms())
	case axis < 0 || axis > 2:
		return nil, fmt.Errorf("hessian: axis %d outside {0, 1, 2}", axis)
	}
	dsc, dspan := opt.Obs.Begin("disp", "disp",
		obs.A("atom", int64(atom)), obs.A("axis", int64(axis)), obs.A("sign", int64(sign)))
	defer dspan.End()
	opt.SCF.Obs = dsc
	opt.DFPT.Obs = dsc
	if opt.Obs.Hot != nil {
		opt.Obs.Hot.HessianDisplacedJobs.Inc()
	}
	return runJob(m.Displaced(atom, axis, float64(sign)*opt.Step), atom, axis, sign, opt)
}

// runJob is RunDisplacement's work on md, the model already displaced: the
// SCF, forces, dipole and polarizability, with failures named after the job.
func runJob(md *scf.Model, atom, axis, sign int, opt JobOptions) (*DisplacementResult, error) {
	ground, err := md.SolveSCF(opt.SCF)
	if err != nil {
		return nil, fmt.Errorf("hessian: displaced SCF (atom %d axis %d sign %+d): %w", atom, axis, sign, err)
	}
	out := &DisplacementResult{
		Atom: atom, Axis: axis, Sign: sign,
		Forces: md.Forces(ground),
		Dipole: md.Dipole(ground),
	}
	if !opt.SkipAlpha {
		resp, err := dfpt.Polarizability(md, ground, opt.DFPT)
		if err != nil {
			return nil, fmt.Errorf("hessian: displaced DFPT (atom %d axis %d sign %+d): %w", atom, axis, sign, err)
		}
		out.Alpha = resp.Alpha
	}
	return out, nil
}

// FragmentData is the per-fragment output of the fragment engine, from either
// route: analytic at the reference, or the displacement loop's differences.
type FragmentData struct {
	// Hess is the 3N×3N Cartesian Hessian (hartree/bohr²), symmetric bit
	// for bit; Validate checks it.
	Hess *linalg.Matrix
	// DAlpha[c][3a+d] = ∂α_c/∂r_{a,d} (a.u.) for component c of
	// AlphaComponents.
	DAlpha [6][]float64
	// DDipole[k][3a+d] = ∂μ_k/∂r_{a,d} (a.u.) — the IR analogue of DAlpha,
	// from the same route (analytic or the displacement results).
	DDipole [3][]float64
}

// NumAtoms returns the atom count implied by the data's dimensions (the
// Hessian is 3N×3N and the derivative vectors have 3N entries), or 0 when
// no block is present.
func (fd *FragmentData) NumAtoms() int {
	if fd == nil {
		return 0
	}
	switch {
	case fd.Hess != nil:
		return fd.Hess.Rows / 3
	case fd.DAlpha[0] != nil:
		return len(fd.DAlpha[0]) / 3
	case fd.DDipole[0] != nil:
		return len(fd.DDipole[0]) / 3
	}
	return 0
}

// BitEqual reports whether two fragment data are identical to the last
// float64 bit, including the presence pattern of optional blocks. The
// checkpoint codec and the crash-resume tests rely on this strict notion of
// equality: a resumed run must reproduce an uninterrupted run exactly.
func (fd *FragmentData) BitEqual(o *FragmentData) bool {
	if fd == nil || o == nil {
		return fd == o
	}
	if (fd.Hess == nil) != (o.Hess == nil) {
		return false
	}
	if fd.Hess != nil && (fd.Hess.Rows != o.Hess.Rows || !bitEqualSlice(fd.Hess.Data, o.Hess.Data)) {
		return false
	}
	for c := range fd.DAlpha {
		if !bitEqualSlice(fd.DAlpha[c], o.DAlpha[c]) {
			return false
		}
	}
	for k := range fd.DDipole {
		if !bitEqualSlice(fd.DDipole[k], o.DDipole[k]) {
			return false
		}
	}
	return true
}

func bitEqualSlice(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Validate scans the fragment data for NaN or Inf entries — a diverged
// SCF/DFPT response that slipped through the solvers' own checks, or an
// injected divergence from the chaos harness — and checks the Hessian is
// symmetric bit for bit (CheckSymmetric). A nil receiver and nil sub-fields
// are accepted (test fakes and Hessian-only runs omit pieces).
func (fd *FragmentData) Validate() error {
	if fd == nil {
		return nil
	}
	if fd.Hess != nil {
		for i, v := range fd.Hess.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("hessian: non-finite Hessian entry (%d,%d) = %v", i/fd.Hess.Cols, i%fd.Hess.Cols, v)
			}
		}
	}
	for comp, d := range fd.DAlpha {
		for i, v := range d {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("hessian: non-finite ∂α component %d entry %d = %v", comp, i, v)
			}
		}
	}
	for k, d := range fd.DDipole {
		for i, v := range d {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("hessian: non-finite ∂μ component %d entry %d = %v", k, i, v)
			}
		}
	}
	return fd.CheckSymmetric()
}

// CheckSymmetric reports an error unless the Hessian, when present, is
// square and equal to its transpose in every bit — the form both engine
// routes return, the store's rotation keeps and assembly relies on.
func (fd *FragmentData) CheckSymmetric() error {
	h := fd.Hess
	if h != nil && h.Rows != h.Cols {
		return fmt.Errorf("hessian: non-square %dx%d Hessian", h.Rows, h.Cols)
	}
	for i := 0; h != nil && i < h.Rows; i++ {
		for j := i + 1; j < h.Rows; j++ {
			if a, b := h.Data[i*h.Rows+j], h.Data[j*h.Rows+i]; math.Float64bits(a) != math.Float64bits(b) {
				return fmt.Errorf("hessian: asymmetric Hessian: (%d,%d) = %v, (%d,%d) = %v", i, j, a, j, i, b)
			}
		}
	}
	return nil
}

// BuildFragmentData assembles finite differences from the 6N displacement
// results of one fragment (each coordinate displaced by ±Step).
func BuildFragmentData(natoms int, results []*DisplacementResult, step float64, withAlpha bool) (*FragmentData, error) {
	n3 := 3 * natoms
	if len(results) != 2*n3 {
		return nil, fmt.Errorf("hessian: got %d displacement results, want %d", len(results), 2*n3)
	}
	// Index results by (coordinate, sign).
	plus := make([]*DisplacementResult, n3)
	minus := make([]*DisplacementResult, n3)
	for _, r := range results {
		c := 3*r.Atom + r.Axis
		if c < 0 || c >= n3 {
			return nil, fmt.Errorf("hessian: result for invalid coordinate %d", c)
		}
		if r.Sign > 0 {
			plus[c] = r
		} else {
			minus[c] = r
		}
	}
	for c := 0; c < n3; c++ {
		if plus[c] == nil || minus[c] == nil {
			return nil, fmt.Errorf("hessian: missing displacement results for coordinate %d", c)
		}
	}

	fd := &FragmentData{Hess: linalg.NewMatrix(n3, n3)}
	for c := 0; c < n3; c++ {
		fp, fm := plus[c].Forces, minus[c].Forces
		for b := 0; b < natoms; b++ {
			df := fp[b].Sub(fm[b]).Scale(1 / (2 * step))
			// H[row][c] = ∂²E/∂r_row∂r_c = −∂F_row/∂r_c.
			fd.Hess.Set(3*b+0, c, -df.X)
			fd.Hess.Set(3*b+1, c, -df.Y)
			fd.Hess.Set(3*b+2, c, -df.Z)
		}
	}
	fd.Hess.Symmetrize()

	if withAlpha {
		for comp, ij := range AlphaComponents {
			fd.DAlpha[comp] = make([]float64, n3)
			for c := 0; c < n3; c++ {
				fd.DAlpha[comp][c] = (plus[c].Alpha[ij[0]][ij[1]] - minus[c].Alpha[ij[0]][ij[1]]) / (2 * step)
			}
		}
	}
	for k := 0; k < 3; k++ {
		fd.DDipole[k] = make([]float64, n3)
	}
	for c := 0; c < n3; c++ {
		d := plus[c].Dipole.Sub(minus[c].Dipole).Scale(1 / (2 * step))
		fd.DDipole[0][c] = d.X
		fd.DDipole[1][c] = d.Y
		fd.DDipole[2][c] = d.Z
	}
	return fd, nil
}

// SmearingRungs is the electronic-temperature escalation ladder used when a
// fragment fails to converge: near-metallic fragments whose ground state
// converges can still have a divergent or glacial self-consistent response,
// and more smearing regularizes both. All displacements of a fragment are
// always computed at one rung, keeping every finite difference on a single
// consistent free-energy surface. A non-positive base selects the default
// electronic temperature — the package's one fallback for an unset smearing.
func SmearingRungs(base float64) []float64 {
	if base <= 0 {
		base = 0.002
	}
	return []float64{base, 2.5 * base, 5 * base, 10 * base, 25 * base}
}

// ComputeFragment is the fragment engine: it builds and calibrates the
// fragment's model, then walks SmearingRungs until one rung yields the
// fragment's data (computeRung). A gapped, field-free ground state takes
// everything analytically at its reference geometry: one SCF, the field and
// nuclear responses on one I − χ·Γ, and the Hessian, dipole and
// polarizability derivatives from them (DESIGN.md §7, "The Hessian by
// coupled-perturbed SCC"); in grid mode the polarizability derivatives come
// from one grid α solve and its adjoint (§7, "Grid ∂α by the adjoint"), which
// needs split levels (dfpt.SplitLevels). The rest — fractional ground states,
// and grid mode's degenerate levels — run the displacement loop, where each
// displacement is one job (displace). Each rung taken above the first
// is counted (obs.MetricSCFSmearingEscalations). When every rung fails the
// error wraps the first rung's failure: the one at the smearing the caller
// asked for.
//
// The result does not depend on the par kernel budget.
// opt.SCF.InitDeltaQ, when set, seeds the calibration SCF and the reference
// SCF of every rung. The calibration's ground state is the reference of a rung
// whose SCF options are the calibration's (foldsInto): that rung solves no
// reference SCF of its own. Alongside the data it returns the reference SCF of
// the rung that succeeded, whose charges and iteration count the trajectory
// engine keeps.
//
// The calibration, the reference solves and the analytic route run in an
// engine taken from the pool of the fragment's shape (takeEngine) and put back
// on return, so a call allocates its model, its results and little else. Both
// results are the caller's: the data is built fresh and the reference cloned
// out of the engine. An engine whose call panicked is dropped, not put back.
//
// Trace layout under opt.Obs: a "model" span with the calibration's scf span,
// the reference scf/dfpt spans, and the loop's "disp" spans, all on lane
// opt.Obs.Track.
func ComputeFragment(f *fragment.Fragment, opt JobOptions) (*FragmentData, *scf.Result, error) {
	e, pool := takeEngine(shapeOf(f))
	data, ref, err := e.compute(f, opt)
	if err == nil {
		ref = ref.Clone()
	}
	pool.Put(e)
	return data, ref, err
}

// compute is ComputeFragment in the engine e: the returned reference is e's
// until its next call, the data fresh.
func (e *engine) compute(f *fragment.Fragment, opt JobOptions) (*FragmentData, *scf.Result, error) {
	msc, mspan := opt.Obs.Begin("model", "engine")
	m, err := newModel(f)
	var cal *scf.Result
	if err == nil {
		if e.scf == nil {
			e.scf = scf.NewWorkspace(m)
		}
		cal, err = calibrate(e.scf, f, m, opt.SCF.InitDeltaQ, msc)
	}
	mspan.End()
	if err != nil {
		return nil, nil, err
	}
	calDetached := false
	var firstErr error
	rungs := SmearingRungs(opt.SCF.Smearing)
	for ri, sigma := range rungs {
		if ri > 0 && opt.Obs.Hot != nil {
			opt.Obs.Hot.SCFSmearingEscalations.Inc()
		}
		o := opt
		o.SCF.Smearing = sigma
		var ref *scf.Result
		switch {
		case foldsInto(cal, o.SCF):
			ref = cal
		case !calDetached:
			// This rung's reference solve overwrites the calibration's
			// ground state in the engine; a later rung may fold into it.
			cal, calDetached = cal.Clone(), true
		}
		data, ref, err := computeRung(e, m, o, ref)
		if err == nil {
			return data, ref, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, nil, fmt.Errorf("hessian: fragment %d failed at every smearing rung: %w", f.ID, firstErr)
}

// engine is the fragment engine's storage for fragments of one shape: the
// SCF workspace the calibration and the reference solves run in, which also
// holds the analytic derivatives' and the calibration's scratch, and the DFPT
// workspace the field and nuclear responses are solved and kept in. What
// either hands out points into it until its next call; the displacement loop
// keeps its own one-shot storage. The zero value is ready (compute makes the
// SCF workspace on first use).
type engine struct {
	scf  *scf.Workspace
	dfpt dfpt.Workspace
}

// newEngine returns an engine for models of m's shape.
func newEngine(m *scf.Model) *engine { return &engine{scf: scf.NewWorkspace(m)} }

// shape keys the engine pools: a model's basis size and atom count.
type shape struct{ n, na int }

// shapeOf returns the shape of f's model: basis.ForAtoms gives each atom
// NumOrbitals functions. Invalid elements count none; NewModel rejects them.
func shapeOf(f *fragment.Fragment) shape {
	s := shape{na: len(f.Els)}
	for _, el := range f.Els {
		if el.Valid() {
			s.n += el.NumOrbitals()
		}
	}
	return s
}

// engines holds one pool of idle engines per shape. A pool keeps no engine
// across garbage collections that find it idle (sync.Pool).
var engines struct {
	sync.RWMutex
	pools map[shape]*sync.Pool
}

// takeEngine returns an idle engine of shape k, new when its pool has none,
// and the pool to put it back in.
func takeEngine(k shape) (*engine, *sync.Pool) {
	engines.RLock()
	pool := engines.pools[k]
	engines.RUnlock()
	if pool == nil {
		engines.Lock()
		if pool = engines.pools[k]; pool == nil {
			if engines.pools == nil {
				engines.pools = make(map[shape]*sync.Pool)
			}
			pool = new(sync.Pool)
			engines.pools[k] = pool
		}
		engines.Unlock()
	}
	if e, ok := pool.Get().(*engine); ok {
		return e, pool
	}
	return new(engine), pool
}

// foldsInto reports whether the calibration's ground state cal is the
// reference SCF a rung with options o would solve. The calibration solved
// scf.DefaultOptions() from o's seed (calibrate), and the terms it
// fitted are repulsive energy alone, so an SCF with those options at its
// smearing repeats it bit for bit.
func foldsInto(cal *scf.Result, o scf.Options) bool {
	d := scf.DefaultOptions()
	return o.Smearing == cal.Sigma && o.MaxIter == d.MaxIter && o.Tol == d.Tol &&
		o.Mixing == d.Mixing && o.Field == d.Field
}

// analyticRoute reports whether a ground state g solved at opt takes the
// analytic route: gapped (scf.Gapped), field-free — the force expression the
// Hessian differentiates has no field term — and, when it wants grid mode's
// ∂α, with split levels (dfpt.SplitLevels): that ∂α differentiates the
// canonical orbitals, which degenerate levels do not have.
func analyticRoute(opt JobOptions, g *scf.Result) bool {
	return scf.Gapped(g.Occ) && opt.SCF.Field == (geom.Vec3{}) &&
		(opt.DFPT.Coulomb == dfpt.GammaCoulomb || opt.SkipAlpha || dfpt.SplitLevels(g))
}

// computeRung computes one fragment's data at the options' smearing from its
// reference SCF — ref, or solved in the engine when ref is nil: the
// reference's analytic data, or the displacement loop's finite differences of
// the Hessian and both derivatives, in which case the fragment is counted
// (obs.MetricHessianFDDerivativeFragments). The returned reference is ref or
// the engine's.
func computeRung(e *engine, m *scf.Model, opt JobOptions, ref *scf.Result) (*FragmentData, *scf.Result, error) {
	r, err := solveReference(e, m, opt, ref)
	if err != nil {
		return nil, nil, err
	}
	if r.analytic != nil {
		return r.analytic, r.ref, nil
	}
	results, err := displace(m, r.opt)
	if err != nil {
		return nil, nil, err
	}
	data, err := BuildFragmentData(len(m.Els), results, opt.Step, !opt.SkipAlpha)
	if err != nil {
		return nil, nil, err
	}
	if opt.Obs.Hot != nil {
		opt.Obs.Hot.HessianFDDerivativeFragments.Inc()
	}
	return data, r.ref, nil
}

// displace runs the displacement loop of the reference model m with the
// options SolveReference hands over: 6N independent jobs, each started from
// the reference charges, run in job order on the calling goroutine (job 2c
// moves coordinate c by +Step, job 2c+1 by −Step). It returns the error of the
// first failed job at once.
func displace(m *scf.Model, opt JobOptions) ([]*DisplacementResult, error) {
	results := make([]*DisplacementResult, 6*m.NumAtoms())
	for k := range results {
		c := k / 2
		r, err := RunDisplacement(m, c/3, c%3, 1-2*(k%2), opt)
		if err != nil {
			return nil, err
		}
		results[k] = r
	}
	return results, nil
}

// reference is what the reference solve hands the fragment engine.
type reference struct {
	opt      JobOptions // the displacement loop's options
	ref      *scf.Result
	analytic *FragmentData // the analytic route's whole result; nil: the displacement loop
}

// SolveReference runs the fragment's reference SCF at the options' smearing
// and returns options carrying the displacement loop's warm-start data — the
// reference charges — plus the reference SCF result itself, whose converged
// charges and iteration count the trajectory engine keeps to seed and account
// the same fragment's next frame. Both DFPT modes solve their response
// directly, so the displaced jobs are handed no response to start from. The
// result owns its storage: it points into an engine made for this call.
func SolveReference(m *scf.Model, opt JobOptions) (*JobOptions, *scf.Result, error) {
	r, err := solveReference(newEngine(m), m, opt, nil)
	if err != nil {
		return nil, nil, err
	}
	return &r.opt, r.ref, nil
}

// solveReference is SolveReference in the engine e, plus the routing, on the
// reference SCF ref when one is given (the calibration's, folded) and on its
// own solve in e when ref is nil. A ground state on the analytic route
// (analyticRoute) takes its field and nuclear responses (dfpt.Responses) and
// from them the Hessian (scf.Model.NuclearHessian), the dipole derivatives
// and, unless SkipAlpha, the polarizability derivatives
// (scf.Model.FieldDerivatives; in grid mode dfpt.GridAlphaDerivatives, the
// adjoint of the grid response; DESIGN.md §7), all solved in e and handed out
// in fresh storage. Everything else leaves analytic nil for the displacement
// loop.
func solveReference(e *engine, m *scf.Model, opt JobOptions, ref *scf.Result) (reference, error) {
	o := opt
	// Reference solves appear as direct scf/dfpt children of the attempt
	// span (displaced solves sit under a "disp" span instead).
	o.SCF.Obs = opt.Obs
	o.DFPT.Obs = opt.Obs
	if ref == nil {
		var err error
		if ref, err = e.scf.Solve(m, o.SCF); err != nil {
			return reference{}, fmt.Errorf("hessian: reference SCF: %w", err)
		}
	}
	o.SCF.InitDeltaQ = ref.DeltaQ
	r := reference{ref: ref, opt: o}
	if !analyticRoute(o, ref) {
		return r, nil
	}
	fr, nr, err := e.dfpt.Responses(m, ref, o.DFPT)
	if err != nil {
		return reference{}, fmt.Errorf("hessian: reference DFPT: %w", err)
	}
	hess := e.scf.NuclearHessian(m, ref, nr)
	hess.Symmetrize()
	dMu, dAlpha := e.scf.FieldDerivatives(m, ref, fr)
	if o.DFPT.Coulomb == dfpt.GridCoulomb && !o.SkipAlpha {
		if dAlpha, err = dfpt.GridAlphaDerivatives(m, ref, nr, o.DFPT); err != nil {
			return reference{}, fmt.Errorf("hessian: reference grid ∂α: %w", err)
		}
	}
	r.analytic = &FragmentData{Hess: hess, DDipole: dMu}
	if !o.SkipAlpha {
		for c, ij := range AlphaComponents {
			r.analytic.DAlpha[c] = dAlpha[ij[0]][ij[1]]
		}
	}
	return r, nil
}

// ModelForFragment builds the SCF model of a fragment (positions are Å in
// the fragment, as extracted from the structure) and calibrates the
// reference potential so the fragment geometry is a stationary point — a
// prerequisite for rotation-clean finite-difference Hessians.
func ModelForFragment(f *fragment.Fragment) (*scf.Model, error) {
	m, err := newModel(f)
	if err != nil {
		return nil, err
	}
	if _, err := calibrate(scf.NewWorkspace(m), f, m, nil, obs.Scope{}); err != nil {
		return nil, err
	}
	return m, nil
}

// newModel builds the SCF model of a fragment, errors named after it.
func newModel(f *fragment.Fragment) (*scf.Model, error) {
	m, err := scf.NewModel(f.Els, f.Pos)
	if err != nil {
		return nil, fmt.Errorf("hessian: fragment %d (%s): %w", f.ID, f.Kind, err)
	}
	return m, nil
}

// calibrate fits f's model m in the workspace ws (scf.Workspace.Calibrate),
// with the calibration SCF started from seed (nil: neutral atoms) and
// recorded under sc, and returns the calibration's ground state, which is
// ws's.
func calibrate(ws *scf.Workspace, f *fragment.Fragment, m *scf.Model, seed []float64, sc obs.Scope) (*scf.Result, error) {
	o := scf.DefaultOptions()
	o.InitDeltaQ, o.Obs = seed, sc
	cal, err := ws.Calibrate(m, o)
	if err != nil {
		return nil, fmt.Errorf("hessian: fragment %d (%s): %w", f.ID, f.Kind, err)
	}
	return cal, nil
}

// Global collects the assembled whole-system quantities.
type Global struct {
	// H is the sparse mass-weighted Hessian (atomic units: eigenvalues are
	// squared angular frequencies), symmetric bit for bit.
	H *Sparse
	// DAlpha[c] is the mass-weighted polarizability derivative vector
	// ∂α_c/∂ξ for component c.
	DAlpha [6][]float64
	// DDipole[k] is the mass-weighted dipole derivative vector ∂μ_k/∂ξ
	// (drives IR intensities).
	DDipole [3][]float64
	// Masses are the per-atom masses in electron masses.
	Masses []float64
	// Dropped lists the fragments (decomposition indices, ascending) whose
	// signed Eq. 1 terms are missing from this assembly — the fail-soft
	// ledger of a degraded run. Empty for a complete assembly.
	Dropped []int
}

// AssembleDegraded combines per-fragment data with the Eq. 1 coefficients
// into the global mass-weighted Hessian and ∂α/∂ξ vectors. massesAMU are
// per-atom masses in amu (as returned by structure.System.Masses); frags[i]
// must correspond to dec.Fragments[i]. Cap-hydrogen rows (GlobalIdx −1) are
// dropped — their contributions cancel between the positively and negatively
// signed terms of the combination.
//
// The Hessian is assembled in two passes with no intermediate. The symbolic
// pass (coupledAtoms) fixes the CSR pattern: atom a's rows hold a 3×3 block
// for every atom some fragment couples it to. The numeric pass walks the
// fragments in decomposition order and adds each contribution
// Coeff·H_f[3la+da][3lb+db] / (√m_a·√m_b) into its slot, so every entry sums
// its contributions in decomposition order — as does its mirror, from the
// same values (FragmentData.Hess is bit-symmetric), so H is bit-symmetric
// too. An entry whose sum is exactly 0 is not stored.
//
// failed is the fail-soft allowance (nil for a complete assembly): fragments
// listed in it may have nil data — their signed Eq. 1 terms are dropped from
// the sums and recorded in Global.Dropped — so a run that lost K fragments
// still yields a spectrum with exactly-known missing contributions. A nil
// entry for a fragment *not* in failed is still an error: silent data loss
// must never assemble.
func AssembleDegraded(dec *fragment.Decomposition, massesAMU []float64, frags []*FragmentData, withAlpha bool, failed []int) (*Global, error) {
	if len(frags) != len(dec.Fragments) {
		return nil, fmt.Errorf("hessian: %d fragment data for %d fragments", len(frags), len(dec.Fragments))
	}
	allowMissing := make(map[int]bool, len(failed))
	for _, fi := range failed {
		if fi < 0 || fi >= len(dec.Fragments) {
			return nil, fmt.Errorf("hessian: failed fragment index %d out of range", fi)
		}
		allowMissing[fi] = true
	}
	var dropped []int
	natoms := len(massesAMU)
	n3 := 3 * natoms
	massesAU := make([]float64, natoms)
	sqrtM := make([]float64, natoms)
	for i, m := range massesAMU {
		massesAU[i] = m * constants.AMUToElectronMass
		sqrtM[i] = sqrtAU(massesAU[i])
	}

	ptr, nbr := coupledAtoms(dec, natoms)
	if err := checkNNZ(9 * len(nbr)); err != nil {
		return nil, err
	}
	// Atom a's three rows are consecutive runs of 3·deg(a) slots from
	// 9·ptr[a]: slot 3p+db of row 3a+da is column 3·nbr[ptr[a]+p]+db.
	val := make([]float64, 9*len(nbr))
	var dAlpha [6][]float64
	if withAlpha {
		for c := range dAlpha {
			dAlpha[c] = make([]float64, n3)
		}
	}
	var dDip [3][]float64
	for k := range dDip {
		dDip[k] = make([]float64, n3)
	}
	for fi := range dec.Fragments {
		f := &dec.Fragments[fi]
		data := frags[fi]
		if data == nil {
			if allowMissing[fi] {
				dropped = append(dropped, fi)
				continue
			}
			return nil, fmt.Errorf("hessian: missing data for fragment %d", fi)
		}
		for la, ga := range f.GlobalIdx {
			if ga < 0 {
				continue
			}
			nb := nbr[ptr[ga]:ptr[ga+1]]
			for lb, gb := range f.GlobalIdx {
				if gb < 0 {
					continue
				}
				p, _ := slices.BinarySearch(nb, int32(gb))
				m := sqrtM[ga] * sqrtM[gb]
				for da := 0; da < 3; da++ {
					slot := val[9*ptr[ga]+3*len(nb)*da+3*p:]
					for db := 0; db < 3; db++ {
						slot[db] += f.Coeff * data.Hess.At(3*la+da, 3*lb+db) / m
					}
				}
			}
			if withAlpha {
				for c := 0; c < 6; c++ {
					for da := 0; da < 3; da++ {
						dAlpha[c][3*ga+da] += f.Coeff * data.DAlpha[c][3*la+da]
					}
				}
			}
			if data.DDipole[0] != nil {
				for k := 0; k < 3; k++ {
					for da := 0; da < 3; da++ {
						dDip[k][3*ga+da] += f.Coeff * data.DDipole[k][3*la+da]
					}
				}
			}
		}
	}

	// Compact in place, dropping the exact zeros.
	h := &Sparse{N: n3, RowPtr: make([]int32, n3+1), Col: make([]int32, len(val))}
	nnz := 0
	for a := 0; a < natoms; a++ {
		nb := nbr[ptr[a]:ptr[a+1]]
		for da := 0; da < 3; da++ {
			for k, v := range val[9*ptr[a]+3*len(nb)*da:][:3*len(nb)] {
				if v != 0 {
					val[nnz], h.Col[nnz] = v, 3*nb[k/3]+int32(k%3)
					nnz++
				}
			}
			h.RowPtr[3*a+da+1] = int32(nnz)
		}
	}
	h.Col, h.Val = h.Col[:nnz], val[:nnz]

	// Mass weighting of the derivative vectors: d_mw = M^{-1/2} d.
	g := &Global{H: h, Masses: massesAU, Dropped: dropped}
	if withAlpha {
		for c := 0; c < 6; c++ {
			for i := 0; i < n3; i++ {
				dAlpha[c][i] /= sqrtM[i/3]
			}
		}
		g.DAlpha = dAlpha
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < n3; i++ {
			dDip[k][i] /= sqrtM[i/3]
		}
	}
	g.DDipole = dDip
	return g, nil
}

// coupledAtoms is assembly's symbolic pass: nbr[ptr[a]:ptr[a+1]] lists,
// ascending and without repeats, the atoms some fragment of dec couples atom
// a to (cap atoms, GlobalIdx −1, skipped) — the 3×3 block pattern of H's
// rows 3a…3a+2. A failed fragment keeps its couplings: their slots sum to
// exactly 0 and are not stored.
func coupledAtoms(dec *fragment.Decomposition, natoms int) (ptr []int, nbr []int32) {
	lists := make([][]int32, natoms)
	for fi := range dec.Fragments {
		idx := dec.Fragments[fi].GlobalIdx
		for _, a := range idx {
			for _, b := range idx {
				if a >= 0 && b >= 0 {
					lists[a] = append(lists[a], int32(b))
				}
			}
		}
	}
	ptr = make([]int, natoms+1)
	for a, l := range lists {
		slices.Sort(l)
		nbr = append(nbr, slices.Compact(l)...)
		ptr[a+1] = len(nbr)
	}
	return ptr, nbr
}

func sqrtAU(m float64) float64 {
	if m <= 0 {
		panic("hessian: non-positive mass")
	}
	return math.Sqrt(m)
}
