// Package raman turns the assembled mass-weighted Hessian and
// polarizability-derivative vectors into Raman spectra. Two paths exist:
//
//   - Dense: diagonalize the Hessian, apply the orientation-averaged
//     intensity formula (paper Eq. 4) mode by mode. Exact, O(N³): the
//     validation reference for small systems.
//   - Lanczos: the paper's large-system solver (Eq. 5): the spectrum is a
//     combination of spectral densities dᵀδ_σ(ω−H)d, one per polarizability
//     component plus one for the trace term. When the Hessian has more
//     coordinates than the K Lanczos steps, they are evaluated with
//     Lanczos+GAGQ — seven K-step recurrences advanced in lockstep by one
//     lanczos.Plan so each step reads the Hessian once. When it has no more
//     than K, K steps would exhaust the Krylov space, and one dense
//     eigendecomposition gives the exact measure the quadrature converges to
//     at O(n³) ≤ O(K³): the same start vectors projected on every
//     eigenvector. The IR spectrum is the same solve with three columns.
package raman

import (
	"fmt"
	"math"

	"qframan/internal/constants"
	"qframan/internal/hessian"
	"qframan/internal/lanczos"
	"qframan/internal/linalg"
	"qframan/internal/obs"
)

// Options controls spectrum generation.
type Options struct {
	// FreqMin/FreqMax/FreqStep define the wavenumber axis in cm⁻¹.
	FreqMin, FreqMax, FreqStep float64
	// Sigma is the Gaussian smearing in cm⁻¹ (the paper uses 5 for the
	// gas-phase protein and 20 for solvated systems).
	Sigma float64
	// LanczosK is the number of Lanczos steps for the large-system path. A
	// Hessian with no more coordinates than LanczosK is solved exactly by one
	// dense eigendecomposition instead: K steps would exhaust its Krylov space.
	LanczosK int
	// UseGAGQ selects the generalized averaged Gauss rule (recommended). It
	// has no effect on a Hessian of at most LanczosK coordinates, whose
	// measure is exact.
	UseGAGQ bool
	// Obs receives which route solved the spectrum and, on the Lanczos
	// route, its step, early-stop, skipped-start and reorthogonalization
	// counts (obs.Scope.RecordLanczos, obs.Scope.RecordExactSpectrum). The
	// zero value disables it; it never affects results.
	Obs obs.Scope
}

// DefaultOptions covers the full vibrational range with the paper's
// gas-phase smearing.
func DefaultOptions() Options {
	return Options{
		FreqMin: 0, FreqMax: 4000, FreqStep: 2,
		Sigma:    5,
		LanczosK: 200,
		UseGAGQ:  true,
	}
}

// Spectrum is a sampled Raman spectrum.
type Spectrum struct {
	Freq      []float64 // cm⁻¹
	Intensity []float64 // arbitrary units (Eq. 4 prefactors included)
}

// Normalize scales the spectrum so its maximum is 1 (no-op for an all-zero
// spectrum).
func (s *Spectrum) Normalize() {
	var max float64
	for _, v := range s.Intensity {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return
	}
	for i := range s.Intensity {
		s.Intensity[i] /= max
	}
}

// CosineSimilarity returns the cosine of the angle between two spectra
// sampled on the same axis — the comparison metric of the validation ladder.
func CosineSimilarity(a, b *Spectrum) float64 {
	if len(a.Intensity) != len(b.Intensity) {
		panic("raman: spectra sampled on different axes")
	}
	na, nb := linalg.Norm2(a.Intensity), linalg.Norm2(b.Intensity)
	if na == 0 || nb == 0 {
		return 0
	}
	return linalg.Dot(a.Intensity, b.Intensity) / (na * nb)
}

// axis returns the wavenumber grid: point i is FreqMin + i·FreqStep, for
// every i that stays within FreqMax up to a 1e-9 step tolerance. Each point
// is computed from i, not accumulated, so a fractional step neither drifts
// nor loses the last point. A reversed range, a step that is not positive,
// or more than 2³¹ points give no axis.
func (o *Options) axis() []float64 {
	pts := (o.FreqMax - o.FreqMin) / o.FreqStep
	if !(o.FreqStep > 0 && pts >= 0 && pts < 1<<31) {
		return nil
	}
	xs := make([]float64, int(math.Floor(pts+1e-9))+1)
	for i := range xs {
		xs[i] = o.FreqMin + float64(i)*o.FreqStep
	}
	return xs
}

// eqFourWeights returns the per-component weights of the paper's Eq. 4 when
// expanded over the six independent tensor components:
// R ∝ 3/2·(Σ_i a_ii)² + 21/2·Σ_ij a_ij², the off-diagonal components
// appearing twice in the double sum.
var eqFourComponentWeights = [6]float64{10.5, 10.5, 10.5, 21, 21, 21}

const eqFourTraceWeight = 1.5

// Modes holds a dense normal-mode analysis.
type Modes struct {
	// Wavenumbers in cm⁻¹ (signed: imaginary modes negative), ascending.
	Wavenumbers []float64
	// Activity is the Eq. 4 Raman activity per mode.
	Activity []float64
}

// DenseModes diagonalizes the mass-weighted Hessian (must be small enough
// to densify) and computes per-mode Raman activities. A Hessian the
// eigensolver cannot converge on is an error wrapping lanczos.ErrQuadrature.
func DenseModes(g *hessian.Global) (*Modes, error) {
	return normalModes(g.H, g.DAlpha[:], true, func(a []float64) float64 {
		tr := a[0] + a[1] + a[2]
		act := eqFourTraceWeight * tr * tr
		for c, w := range eqFourComponentWeights {
			act += w * a[c] * a[c]
		}
		return act
	})
}

// normalModes is the dense mode analysis behind every exact path: it
// densifies h, diagonalizes it once, and gives mode p its wavenumber and the
// activity activity(a), where a[c] = v_pᵀ·vecs[c] is the projection of
// vector c on the mode's eigenvector (0 for a nil vector). With
// eigenvectors set the projections are dot products with the formed
// eigenvectors (linalg.EigSymWork), the arithmetic the dense spectra's bits
// are pinned to; without, the solve carries the vectors through the
// reduction and the QL rotations instead (linalg.EigSymProjected), at the
// same eigenvalue bits and about a third of the cost. A Hessian the
// eigensolver cannot converge on — a non-finite one — is an error wrapping
// lanczos.ErrQuadrature: deterministic, never retried.
func normalModes(h *hessian.Sparse, vecs [][]float64, eigenvectors bool, activity func(a []float64) float64) (*Modes, error) {
	n, w := h.Dim(), len(vecs)
	v := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			v.Set(i, int(h.Col[k]), h.Val[k])
		}
	}
	v.Symmetrize()
	vals := make([]float64, n)
	proj := linalg.NewMatrix(n, w) // row p: the projections on mode p
	var err error
	if eigenvectors {
		if err = linalg.NewEigSymWork(n).Solve(v, vals, v); err == nil {
			// Each projection is summed in ascending i, one eigenvector row
			// at a time.
			for i := 0; i < n; i++ {
				for c, d := range vecs {
					if d == nil {
						continue
					}
					di := d[i]
					for p, x := range v.Row(i) {
						proj.Data[p*w+c] += x * di
					}
				}
			}
		}
	} else {
		for c, d := range vecs {
			for i, x := range d {
				proj.Data[i*w+c] = x
			}
		}
		err = linalg.EigSymProjected(v, vals, proj)
	}
	if err != nil {
		return nil, fmt.Errorf("raman: mode analysis: %w: %w", lanczos.ErrQuadrature, err)
	}
	m := &Modes{Wavenumbers: make([]float64, n), Activity: make([]float64, n)}
	for p, val := range vals {
		m.Wavenumbers[p] = constants.WavenumberFromEigenvalue(val)
		m.Activity[p] = activity(proj.Row(p))
	}
	return m, nil
}

// spectrum broadens the modes on opt's axis, each by a normalized Gaussian
// of width opt.Sigma cut at ±8σ (the window of the Lanczos rule), dropping
// modes below rigidCutoff cm⁻¹ in absolute value.
func (m *Modes) spectrum(opt Options, rigidCutoff float64) *Spectrum {
	xs := opt.axis()
	out := &Spectrum{Freq: xs, Intensity: make([]float64, len(xs))}
	pref := 1 / (math.Sqrt(2*math.Pi) * opt.Sigma)
	for p, w := range m.Wavenumbers {
		if math.Abs(w) < rigidCutoff {
			continue
		}
		for xi, x := range xs {
			dx := (x - w) / opt.Sigma
			if dx > 8 || dx < -8 {
				continue
			}
			out.Intensity[xi] += m.Activity[p] * pref * math.Exp(-0.5*dx*dx)
		}
	}
	return out
}

// DenseSpectrum produces the exact spectrum from a dense mode analysis,
// dropping rigid-body modes below rigidCutoff cm⁻¹ (in absolute value).
func DenseSpectrum(g *hessian.Global, opt Options, rigidCutoff float64) (*Spectrum, error) {
	modes, err := DenseModes(g)
	if err != nil {
		return nil, err
	}
	return modes.spectrum(opt, rigidCutoff), nil
}

// LanczosSpectrum produces the spectrum with the paper's Eq. 5 solver: seven
// spectral densities (six components + trace) evaluated by Lanczos+GAGQ on
// the sparse mass-weighted Hessian — one lockstep lanczos.Plan solve, one
// pass over the Hessian per step for all seven — or, for a Hessian of at most
// opt.LanczosK coordinates, exactly by one eigendecomposition. Rigid-body
// translations are projected out of every start vector.
func LanczosSpectrum(g *hessian.Global, opt Options) (*Spectrum, error) {
	if g.DAlpha[0] == nil {
		return nil, fmt.Errorf("raman: polarizability derivatives missing")
	}
	vecs, weights := ramanColumns(g)
	return lanczosSpectrum(g, opt, vecs, weights)
}

// ramanColumns returns Eq. 4's seven vectors and weights: the six
// polarizability-derivative components and their trace.
func ramanColumns(g *hessian.Global) ([][]float64, []float64) {
	n := g.H.Dim()
	dTr := make([]float64, n)
	for i := 0; i < n; i++ {
		dTr[i] = g.DAlpha[0][i] + g.DAlpha[1][i] + g.DAlpha[2][i]
	}
	vecs := [7][]float64{6: dTr}
	weights := [7]float64{6: eqFourTraceWeight}
	copy(vecs[:], g.DAlpha[:])
	copy(weights[:], eqFourComponentWeights[:])
	return vecs[:], weights[:]
}

// lanczosSpectrum is Σ_c weights[c]·d_cᵀ·δσ(ω−H)·d_c for the vectors d_c,
// summed in index order: the Raman and IR large-system paths. The route is
// chosen by the input: a Hessian with more coordinates than opt.LanczosK
// takes the K-step quadrature, one with no more takes the exact measure.
func lanczosSpectrum(g *hessian.Global, opt Options, vecs [][]float64, weights []float64) (*Spectrum, error) {
	starts := startVectors(g, vecs)
	if g.H.Dim() <= opt.LanczosK {
		return exactSpectrum(g.H, opt, starts, weights)
	}
	return quadratureSpectrum(g.H, opt, starts, weights)
}

// startVectors returns the vectors with the rigid translations projected
// out, nil for an absent component and for one that vanishes under the
// projection (its spectral weight is zero; normalizing it would amplify
// noise into NaNs).
func startVectors(g *hessian.Global, vecs [][]float64) [][]float64 {
	n := g.H.Dim()
	trans := translationVectors(g.Masses)
	starts := make([][]float64, len(vecs))
	buf := make([]float64, len(vecs)*n)
	for c, d := range vecs {
		dp := buf[c*n : (c+1)*n]
		if copy(dp, d) != n {
			continue // component absent
		}
		project(dp, trans)
		if linalg.Norm2(dp) < 1e-10*linalg.Norm2(d)+1e-300 {
			continue
		}
		starts[c] = dp
	}
	return starts
}

// exactSpectrum is the measure the K-step quadrature converges to, for a
// Hessian whose Krylov space K steps would exhaust: mode p at its
// wavenumber with weight Σ_c weights[c]·(v_pᵀd_c)², broadened as the rule's
// nodes are. One O(n³) eigendecomposition replaces the recurrences and
// their (2K−1)-node rules; no mode is dropped, as the quadrature drops none.
func exactSpectrum(h *hessian.Sparse, opt Options, starts [][]float64, weights []float64) (*Spectrum, error) {
	modes, err := normalModes(h, starts, false, func(a []float64) float64 {
		var act float64
		for c, w := range weights {
			act += w * a[c] * a[c]
		}
		return act
	})
	if err != nil {
		return nil, err
	}
	if opt.Obs.Enabled() {
		opt.Obs.RecordExactSpectrum()
	}
	return modes.spectrum(opt, 0), nil
}

// quadratureSpectrum is the paper's route: one lockstep lanczos.Plan solve
// of K steps from every start vector, then each column's Gauss or GAGQ
// density on the axis.
func quadratureSpectrum(h *hessian.Sparse, opt Options, starts [][]float64, weights []float64) (*Spectrum, error) {
	plan, err := lanczos.NewPlan(h, len(starts), lanczos.Options{K: opt.LanczosK})
	if err != nil {
		return nil, err
	}
	if err := plan.Solve(starts); err != nil {
		return nil, err
	}
	if opt.Obs.Enabled() {
		st := plan.Stats()
		opt.Obs.RecordLanczos(st.Steps, st.EarlyStops, st.SkippedStarts, st.Reorthogonalized)
	}
	xs := opt.axis()
	if err := plan.Densities(xs, opt.Sigma, constants.WavenumberFromEigenvalue, opt.UseGAGQ); err != nil {
		return nil, err
	}
	out := &Spectrum{Freq: xs, Intensity: make([]float64, len(xs))}
	for c, weight := range weights {
		dens := plan.Density(c)
		if dens == nil {
			continue
		}
		for i := range out.Intensity {
			out.Intensity[i] += weight * dens[i]
		}
	}
	return out, nil
}

// translationVectors returns the three orthonormal mass-weighted rigid
// translation vectors.
func translationVectors(massesAU []float64) [][]float64 {
	n3 := 3 * len(massesAU)
	out := make([][]float64, 3)
	for d := 0; d < 3; d++ {
		v := make([]float64, n3)
		for a, m := range massesAU {
			v[3*a+d] = math.Sqrt(m)
		}
		linalg.Scal(1/linalg.Norm2(v), v)
		out[d] = v
	}
	return out
}

func project(d []float64, basis [][]float64) {
	for _, b := range basis {
		c := linalg.Dot(d, b)
		if c != 0 {
			linalg.Axpy(-c, b, d)
		}
	}
}
