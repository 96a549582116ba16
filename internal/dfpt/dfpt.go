// Package dfpt implements density-functional-perturbation-theory response
// calculations on top of the scf engine: the polarizability tensor α from
// the first-order response to a uniform electric field. This is the
// per-displacement worker step of the paper (§V-A): each DFPT cycle runs the
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
//     finite-field calculations to machine-ish precision.
//   - GridCoulomb: the paper's real-space pipeline — batched basis
//     evaluation, many small GEMMs, direct sine-transform Poisson solve. It
//     exercises the exact computational pattern the paper optimizes
//     (including the symmetry-reduced kernels of Fig. 6) and is the mode
//     benchmarked for Table I and Fig. 9.
package dfpt

import (
	"fmt"
	"math"
	"time"

	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/scf"
)

// CoulombMode selects how the response Coulomb potential is computed.
type CoulombMode int

const (
	// GammaCoulomb uses the Klopman–Ohno charge-fluctuation kernel.
	GammaCoulomb CoulombMode = iota
	// GridCoulomb uses the real-space grid + Poisson pipeline.
	GridCoulomb
)

// Options configures the DFPT cycle.
type Options struct {
	MaxIter int
	Tol     float64 // convergence on max |ΔP⁽¹⁾| between cycles
	Mixing  float64

	Coulomb CoulombMode

	// Grid parameters (GridCoulomb only); bohr.
	GridSpacing float64
	GridMargin  float64
	BatchSide   int // grid points per batch edge

	// StrengthReduction enables the symmetry-aware kernels of §V-D
	// (Fig. 6): identical results with fewer GEMM invocations.
	StrengthReduction bool

	// InitP1 warm-starts the response density matrices per field direction
	// (e.g. with the converged response of the undisplaced reference
	// geometry in the displacement loop). The matrices are copied, never
	// written, so one set may be shared across concurrent workers.
	InitP1 [3]*linalg.Matrix

	// Obs carries the observability handles; each DFPT cycle then records a
	// span with its four phase children (P⁽¹⁾, n⁽¹⁾, v⁽¹⁾, H⁽¹⁾) plus the
	// per-phase histograms. Execution-only: excluded from the store's
	// content fingerprint; the zero Scope disables instrumentation.
	Obs obs.Scope

	// cycBuf, when set, is a scratch buffer respond reuses for its cycle
	// samples instead of allocating one per solve. Polarizability points it
	// at a stack variable shared by its (sequential) direction and retry
	// solves; it must never be shared across goroutines.
	cycBuf *[]obs.CycleSample
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
		// The reduced kernels are the production path.
		StrengthReduction: true,
	}
}

// PhaseMetrics accumulates per-phase cost over all cycles and field
// directions of one polarizability calculation.
type PhaseMetrics struct {
	// Wall time per phase.
	TimeP1, TimeN1, TimeV1, TimeH1 time.Duration
	// GEMM invocation counts for the grid phases.
	GEMMsN1, GEMMsH1 int64
	// FLOPs for the grid phases (Table I reports these two parts).
	FLOPsN1, FLOPsH1 int64
	// GradN1Integral accumulates ∫∇n⁽¹⁾ d³r over all cycles — a grid
	// health diagnostic that must stay near zero (the response density
	// decays inside the box).
	GradN1Integral float64
}

// Response is the converged field response.
type Response struct {
	// Alpha is the polarizability tensor α_ij = ∂μ_i/∂E_j (a.u.).
	Alpha [3][3]float64
	// P1 are the response density matrices per field direction.
	P1 [3]*linalg.Matrix
	// Cycles is the total number of DFPT cycles summed over directions.
	Cycles int
	// MixingUsed is the mixing factor that actually converged (the
	// robustness ladder may have reduced it); callers running many related
	// responses (the displacement loop) reuse it to skip doomed attempts.
	MixingUsed float64
	// Metrics holds the per-phase accounting.
	Metrics PhaseMetrics
}

// MeanPolarizability returns ᾱ = tr(α)/3.
func (r *Response) MeanPolarizability() float64 {
	return (r.Alpha[0][0] + r.Alpha[1][1] + r.Alpha[2][2]) / 3
}

// Polarizability computes the static polarizability tensor of a converged
// ground state by running one DFPT response per field direction.
func Polarizability(m *scf.Model, ground *scf.Result, opt Options) (*Response, error) {
	if opt.MaxIter <= 0 || opt.Tol <= 0 || opt.Mixing <= 0 || opt.Mixing > 1 {
		return nil, fmt.Errorf("dfpt: invalid options (MaxIter %d, Tol %g, Mixing %g)", opt.MaxIter, opt.Tol, opt.Mixing)
	}
	return polarizability(m, ground, opt, nil)
}

// polarizability is Polarizability on validated options. Grid mode builds
// its environment unless the caller (a test) brings one.
func polarizability(m *scf.Model, ground *scf.Result, opt Options, gridEnv *gridEnv) (*Response, error) {
	resp := &Response{}
	sc, dfptSpan := opt.Obs.Begin("dfpt", "dfpt")
	defer dfptSpan.End()
	if opt.Obs.Enabled() {
		var cycScratch []obs.CycleSample
		opt.cycBuf = &cycScratch
	}
	if opt.Coulomb == GridCoulomb && gridEnv == nil {
		var err error
		gridEnv, err = newGridEnv(m, opt)
		if err != nil {
			return nil, err
		}
	}
	for dir := 0; dir < 3; dir++ {
		dirSc, dirSpan := sc.Begin("dfpt.dir", "dfpt", obs.A("dir", int64(dir)))
		// Robustness ladder: small-gap fragments can oscillate in the
		// response loop; halving the mixing is the standard remedy.
		var p1 *linalg.Matrix
		var cycles int
		var err error
		for _, scale := range []float64{1, 0.5, 0.25, 0.1} {
			o := opt
			o.Mixing = opt.Mixing * scale
			o.MaxIter = int(float64(opt.MaxIter) / scale)
			if o.MaxIter > 3*opt.MaxIter {
				o.MaxIter = 3 * opt.MaxIter
			}
			o.Obs = dirSc
			p1, cycles, err = respond(m, ground, dir, o, gridEnv, &resp.Metrics)
			if err == nil {
				resp.MixingUsed = o.Mixing
				break
			}
		}
		dirSpan.End(obs.A("cycles", int64(cycles)))
		if err != nil {
			return nil, fmt.Errorf("dfpt: direction %d: %w", dir, err)
		}
		resp.P1[dir] = p1
		resp.Cycles += cycles
		for i := 0; i < 3; i++ {
			// α_i,dir = ∂μ_i/∂E_dir = −tr(P⁽¹⁾_dir · D^i).
			resp.Alpha[i][dir] = -traceProduct(p1, m.Dip[i])
		}
	}
	return resp, nil
}

// respond runs the self-consistent DFPT cycle for one field direction and
// returns the converged response density matrix.
func respond(m *scf.Model, ground *scf.Result, dir int, opt Options, env *gridEnv, met *PhaseMetrics) (*linalg.Matrix, int, error) {
	n := m.Basis.Size()
	nocc := m.NumOcc()
	nvirt := n - nocc
	if nvirt == 0 {
		return nil, 0, fmt.Errorf("dfpt: no virtual orbitals (basis %d, occupied %d)", n, nocc)
	}
	hExt := m.Dip[dir] // +D^dir per unit field (electron charge −1)

	p1 := linalg.NewMatrix(n, n)
	if init := opt.InitP1[dir]; init != nil && init.Rows == n {
		p1.CopyFrom(init)
	}
	h1 := linalg.NewMatrix(n, n)
	obsOn := opt.Obs.Enabled()
	var samples []obs.CycleSample
	var base time.Time
	if obsOn {
		// Cycles are accumulated locally and flushed as one batch per
		// solve: on µs-scale gamma cycles, per-cycle locking and histogram
		// updates alone would cost several percent of the solve. Phase
		// boundaries are marked as time.Since(base) offsets — a single
		// monotonic clock read, roughly half the cost of time.Now.
		base = time.Now()
		if opt.cycBuf != nil {
			samples = (*opt.cycBuf)[:0]
		} else {
			samples = make([]obs.CycleSample, 0, min(opt.MaxIter, 16))
		}
		defer func() {
			opt.Obs.RecordDFPTCycles(base, samples)
			if opt.cycBuf != nil {
				// Hand the (possibly grown) buffer back for the next solve;
				// RecordDFPTCycles copied the samples out synchronously.
				*opt.cycBuf = samples
			}
		}()
	}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		var cycOff, hEndOff time.Duration
		var durs [obs.NumPhases]time.Duration
		// Response Hamiltonian: external + Coulomb response of current P1.
		switch opt.Coulomb {
		case GammaCoulomb:
			if obsOn {
				cycOff = time.Since(base)
				durs[obs.PhaseN1], durs[obs.PhaseV1], durs[obs.PhaseH1], hEndOff =
					gammaResponseTimed(m, p1, hExt, h1, met, base, cycOff)
			} else {
				h1.CopyFrom(hExt)
				addGammaResponse(m, p1, h1)
			}
		case GridCoulomb:
			if obsOn {
				cycOff = time.Since(base)
			}
			h1.CopyFrom(hExt)
			// The grid pipeline already times its three phases into met;
			// per-cycle durations are the deltas across the call.
			preN1, preV1, preH1 := met.TimeN1, met.TimeV1, met.TimeH1
			if err := env.addGridResponse(p1, h1, dir, met); err != nil {
				return nil, iter, err
			}
			durs[obs.PhaseN1] = met.TimeN1 - preN1
			durs[obs.PhaseV1] = met.TimeV1 - preV1
			durs[obs.PhaseH1] = met.TimeH1 - preH1
			if obsOn {
				hEndOff = time.Since(base)
			}
		}

		// Phase 1: response density matrix by sum over states. When
		// instrumented, the H1 boundary read doubles as the P1 start.
		var t0 time.Time
		if !obsOn {
			t0 = time.Now()
		}
		newP1 := responseDensity(m, ground, h1, ground.Sigma)
		var dP1, cycTotal time.Duration
		if obsOn {
			endOff := time.Since(base)
			dP1 = endOff - hEndOff
			durs[obs.PhaseP1] = dP1
			// The cycle span ends at the last phase boundary: mixing and
			// the convergence test stay outside, so phases tile the cycle.
			cycTotal = endOff - cycOff
		} else {
			dP1 = time.Since(t0)
		}
		met.TimeP1 += dP1

		var maxDelta float64
		for i, v := range newP1.Data {
			d := math.Abs(v - p1.Data[i])
			if d > maxDelta {
				maxDelta = d
			}
			if math.IsNaN(d) {
				// NaN compares false against everything — without this
				// check a diverged response would slip past the
				// convergence test wherever its healthy entries settle.
				return nil, iter, fmt.Errorf("dfpt: response diverged (NaN) at cycle %d", iter)
			}
			p1.Data[i] = (1-opt.Mixing)*p1.Data[i] + opt.Mixing*v
		}
		if maxDelta > 1e12 {
			return nil, iter, fmt.Errorf("dfpt: response diverging (|ΔP1| = %g) at cycle %d", maxDelta, iter)
		}
		if obsOn {
			samples = append(samples, obs.CycleSample{
				Iter: int32(iter), Start: cycOff, Durs: durs, Total: cycTotal,
			})
		}
		if maxDelta < opt.Tol {
			return p1, iter, nil
		}
	}
	return nil, opt.MaxIter, fmt.Errorf("dfpt: cycle not converged after %d iterations", opt.MaxIter)
}

// responseDensity computes the uncoupled first-order density matrix for the
// perturbation h1 (the field leaves S unchanged, so no overlap-response
// terms appear). With occupations f_p the standard perturbation sum is
//
//	P⁽¹⁾ = Σ_{p≠q} w_pq (c_qᵀ h1 c_p) c_q c_pᵀ,
//	w_pq = (f_p − f_q)/(ε_p − ε_q),
//
// which reduces to the closed-shell occupied→virtual sum for integral
// occupations, and which Fermi smearing regularizes: for near-degenerate
// pairs w_pq tends to the finite derivative f'(ε), so small-gap fragments
// stay well-conditioned.
func responseDensity(m *scf.Model, ground *scf.Result, h1 *linalg.Matrix, smearing float64) *linalg.Matrix {
	n := m.Basis.Size()
	// Fast path: when every orbital is within occTol of full or empty,
	// only occupied×virtual pairs carry non-negligible weight (intra-group
	// pairs have |f_p−f_q| ≤ occTol), and the block formulation halves the
	// GEMM work — this is the hot loop of the whole displacement pipeline.
	// The block still uses the exact per-pair occupation differences, so
	// the smearing tails are treated exactly.
	const occTol = 1e-3
	fractional := false
	for _, f := range ground.Occ {
		if f > occTol && f < 2-occTol {
			fractional = true
			break
		}
	}
	if !fractional {
		return responseDensityGapped(m, ground, h1, occTol)
	}
	// hmo = Cᵀ h1 C.
	tmp := linalg.MatMul(true, false, ground.C, h1, m.Ops)
	hmo := linalg.MatMul(false, false, tmp, ground.C, m.Ops)
	// Scale by the occupation-difference ratio: M_qp = w_pq · hmo_qp.
	for q := 0; q < n; q++ {
		row := hmo.Row(q)
		for p := 0; p < n; p++ {
			if p == q {
				row[p] = 0
				continue
			}
			df := ground.Occ[p] - ground.Occ[q]
			de := ground.Eps[p] - ground.Eps[q]
			switch {
			case math.Abs(de) > 1e-8:
				row[p] *= df / de
			case smearing > 0:
				// Degenerate pair: use the analytic limit f'(ε̄).
				g := 0.25 * (ground.Occ[p] + ground.Occ[q]) // per-spin mean
				row[p] *= -2 / smearing * g * (1 - g)
			default:
				row[p] = 0
			}
		}
	}
	// P1 = C·M·Cᵀ (M_qp includes the pair weight; the symmetric partner
	// (q,p) carries the same weight, so P1 is symmetric).
	cm := linalg.MatMul(false, false, ground.C, hmo, m.Ops)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, cm, ground.C, 0, p1, m.Ops)
	p1.Symmetrize()
	return p1
}

// responseDensityGapped is the (near-)integral-occupation specialization:
// P⁽¹⁾ = Z + Zᵀ with Z = C_v·U·C_oᵀ, U_ai = (f_i−f_a)·(c_aᵀ h1 c_i)/(ε_i−ε_a).
func responseDensityGapped(m *scf.Model, ground *scf.Result, h1 *linalg.Matrix, occTol float64) *linalg.Matrix {
	n := m.Basis.Size()
	var occIdx, virtIdx []int
	for k, f := range ground.Occ {
		if f > occTol {
			occIdx = append(occIdx, k)
		} else {
			virtIdx = append(virtIdx, k)
		}
	}
	no, nv := len(occIdx), len(virtIdx)
	cOcc := linalg.NewMatrix(n, no)
	cVirt := linalg.NewMatrix(n, nv)
	for i := 0; i < n; i++ {
		for k, o := range occIdx {
			cOcc.Set(i, k, ground.C.At(i, o))
		}
		for k, v := range virtIdx {
			cVirt.Set(i, k, ground.C.At(i, v))
		}
	}
	tmp := linalg.MatMul(true, false, cVirt, h1, m.Ops)
	u := linalg.MatMul(false, false, tmp, cOcc, m.Ops)
	for a := 0; a < nv; a++ {
		ea := ground.Eps[virtIdx[a]]
		fa := ground.Occ[virtIdx[a]]
		row := u.Row(a)
		for i := 0; i < no; i++ {
			de := ground.Eps[occIdx[i]] - ea
			if de > -1e-9 && de < 1e-9 {
				row[i] = 0
			} else {
				row[i] *= (ground.Occ[occIdx[i]] - fa) / de
			}
		}
	}
	vu := linalg.MatMul(false, false, cVirt, u, m.Ops)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, vu, cOcc, 0, p1, m.Ops)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			s := p1.At(i, j) + p1.At(j, i)
			p1.Set(i, j, s)
			p1.Set(j, i, s)
		}
		p1.Set(i, i, 2*p1.At(i, i))
	}
	return p1
}

// addGammaResponse adds the charge-fluctuation response Hamiltonian
// ½S_μν(V⁽¹⁾_A + V⁽¹⁾_B) with V⁽¹⁾ = γ·Δq⁽¹⁾ to h1. The three steps are
// the γ-mode realizations of the paper's n⁽¹⁾, v⁽¹⁾ and H⁽¹⁾ phases (the
// response charges stand in for the real-space response density).
func addGammaResponse(m *scf.Model, p1, h1 *linalg.Matrix) {
	dq1 := gammaResponseCharges(m, p1)
	v1 := gammaResponsePotential(m, dq1)
	addGammaResponseH1(m, v1, h1)
}

// gammaResponseTimed runs the same three steps as addGammaResponse with a
// monotonic clock read (offset from base) at each phase boundary, resetting
// h1 from hExt inside the H⁽¹⁾ phase. The caller supplies the n⁽¹⁾ start
// offset (its cycle-start read) and receives the H⁽¹⁾ end offset, which
// doubles as the P⁽¹⁾ start — two clock reads inside instead of four. It
// both accumulates the package metrics and returns the per-cycle durations
// for the span recorder.
func gammaResponseTimed(m *scf.Model, p1, hExt, h1 *linalg.Matrix, met *PhaseMetrics, base time.Time, start time.Duration) (dn1, dv1, dh1, end time.Duration) {
	dq1 := gammaResponseCharges(m, p1)
	t1 := time.Since(base)
	v1 := gammaResponsePotential(m, dq1)
	t2 := time.Since(base)
	h1.CopyFrom(hExt)
	addGammaResponseH1(m, v1, h1)
	end = time.Since(base)
	dn1, dv1, dh1 = t1-start, t2-t1, end-t2
	met.TimeN1 += dn1
	met.TimeV1 += dv1
	met.TimeH1 += dh1
	return dn1, dv1, dh1, end
}

// gammaResponseCharges computes the response Mulliken charges
// Δq⁽¹⁾_A = Σ_{μ∈A} (P⁽¹⁾·S)_μμ — the n⁽¹⁾ phase of γ mode.
func gammaResponseCharges(m *scf.Model, p1 *linalg.Matrix) []float64 {
	na := m.NumAtoms()
	dq1 := make([]float64, na)
	n := m.Basis.Size()
	for i := 0; i < n; i++ {
		a := m.Basis.Funcs[i].Atom
		dq1[a] += linalg.Dot(p1.Row(i), m.S.Row(i))
	}
	return dq1
}

// gammaResponsePotential computes V⁽¹⁾ = γ·Δq⁽¹⁾ — the v⁽¹⁾ phase.
func gammaResponsePotential(m *scf.Model, dq1 []float64) []float64 {
	na := m.NumAtoms()
	v1 := make([]float64, na)
	for a := 0; a < na; a++ {
		var s float64
		for b := 0; b < na; b++ {
			s += m.Gamma.At(a, b) * dq1[b]
		}
		v1[a] = s
	}
	return v1
}

// addGammaResponseH1 adds ½S_μν(V⁽¹⁾_A + V⁽¹⁾_B) to h1 — the H⁽¹⁾ phase.
func addGammaResponseH1(m *scf.Model, v1 []float64, h1 *linalg.Matrix) {
	n := m.Basis.Size()
	for i := 0; i < n; i++ {
		ai := m.Basis.Funcs[i].Atom
		for j := 0; j < n; j++ {
			aj := m.Basis.Funcs[j].Atom
			h1.Add(i, j, 0.5*m.S.At(i, j)*(v1[ai]+v1[aj]))
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
