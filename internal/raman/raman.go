// Package raman turns the assembled mass-weighted Hessian and
// polarizability-derivative vectors into Raman spectra. Two paths exist:
//
//   - Dense: diagonalize the Hessian, apply the orientation-averaged
//     intensity formula (paper Eq. 4) mode by mode. Exact, O(N³): the
//     validation reference for small systems.
//   - Lanczos: the paper's large-system solver (Eq. 5): the spectrum is a
//     combination of spectral densities dᵀδ_σ(ω−H)d evaluated with
//     Lanczos+GAGQ, one per polarizability component plus one for the trace
//     term — seven k-step recurrences regardless of system size, advanced in
//     lockstep by one lanczos.Plan so each step reads the Hessian once. The
//     IR spectrum is the same solve with three columns.
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
	// LanczosK is the number of Lanczos steps for the large-system path.
	LanczosK int
	// UseGAGQ selects the generalized averaged Gauss rule (recommended).
	UseGAGQ bool
	// Obs receives the Lanczos solver's step, early-stop, skipped-start and
	// reorthogonalization counts (obs.Scope.RecordLanczos). The zero value
	// disables it; it never affects results.
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
// to densify) and computes per-mode Raman activities.
func DenseModes(g *hessian.Global) (*Modes, error) {
	n := g.H.Dim()
	dense := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := g.H.RowPtr[i]; k < g.H.RowPtr[i+1]; k++ {
			dense.Set(i, int(g.H.Col[k]), g.H.Val[k])
		}
	}
	dense.Symmetrize()
	vals, vecs := linalg.EigSym(dense)
	m := &Modes{
		Wavenumbers: make([]float64, n),
		Activity:    make([]float64, n),
	}
	for p := 0; p < n; p++ {
		m.Wavenumbers[p] = constants.WavenumberFromEigenvalue(vals[p])
		var a [6]float64
		for c := 0; c < 6; c++ {
			if g.DAlpha[c] == nil {
				continue
			}
			for i := 0; i < n; i++ {
				a[c] += vecs.At(i, p) * g.DAlpha[c][i]
			}
		}
		tr := a[0] + a[1] + a[2]
		act := eqFourTraceWeight * tr * tr
		for c := 0; c < 6; c++ {
			act += eqFourComponentWeights[c] * a[c] * a[c]
		}
		m.Activity[p] = act
	}
	return m, nil
}

// DenseSpectrum produces the exact spectrum from a dense mode analysis,
// dropping rigid-body modes below rigidCutoff cm⁻¹ (in absolute value).
func DenseSpectrum(g *hessian.Global, opt Options, rigidCutoff float64) (*Spectrum, error) {
	modes, err := DenseModes(g)
	if err != nil {
		return nil, err
	}
	xs := opt.axis()
	out := &Spectrum{Freq: xs, Intensity: make([]float64, len(xs))}
	pref := 1 / (math.Sqrt(2*math.Pi) * opt.Sigma)
	for p, w := range modes.Wavenumbers {
		if math.Abs(w) < rigidCutoff {
			continue
		}
		for xi, x := range xs {
			dx := (x - w) / opt.Sigma
			if dx > 8 || dx < -8 {
				continue
			}
			out.Intensity[xi] += modes.Activity[p] * pref * math.Exp(-0.5*dx*dx)
		}
	}
	return out, nil
}

// LanczosSpectrum produces the spectrum with the paper's Eq. 5 solver: seven
// spectral densities (six components + trace) evaluated by Lanczos+GAGQ on
// the sparse mass-weighted Hessian — one lockstep lanczos.Plan solve, one
// pass over the Hessian per step for all seven. Rigid-body translations are
// projected out of every start vector.
func LanczosSpectrum(g *hessian.Global, opt Options) (*Spectrum, error) {
	if g.DAlpha[0] == nil {
		return nil, fmt.Errorf("raman: polarizability derivatives missing")
	}
	n := g.H.Dim()
	dTr := make([]float64, n)
	for i := 0; i < n; i++ {
		dTr[i] = g.DAlpha[0][i] + g.DAlpha[1][i] + g.DAlpha[2][i]
	}
	vecs := [7][]float64{6: dTr}
	weights := [7]float64{6: eqFourTraceWeight}
	copy(vecs[:], g.DAlpha[:])
	copy(weights[:], eqFourComponentWeights[:])
	return lanczosSpectrum(g, opt, vecs[:], weights[:])
}

// lanczosSpectrum is Σ_c weights[c]·d_cᵀ·δσ(ω−H)·d_c for the vectors d_c,
// summed in index order: the Raman and IR large-system paths.
func lanczosSpectrum(g *hessian.Global, opt Options, vecs [][]float64, weights []float64) (*Spectrum, error) {
	n := g.H.Dim()
	xs := opt.axis()
	out := &Spectrum{Freq: xs, Intensity: make([]float64, len(xs))}
	trans := translationVectors(g.Masses)

	starts := make([][]float64, len(vecs))
	buf := make([]float64, len(vecs)*n)
	for c, d := range vecs {
		dp := buf[c*n : (c+1)*n]
		if copy(dp, d) != n {
			continue // component absent
		}
		project(dp, trans)
		// Skip numerically vanishing start vectors (their spectral weight
		// is zero; normalizing them would amplify noise into NaNs).
		if linalg.Norm2(dp) < 1e-10*linalg.Norm2(d)+1e-300 {
			continue
		}
		starts[c] = dp
	}
	plan, err := lanczos.NewPlan(g.H, len(vecs), lanczos.Options{K: opt.LanczosK})
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
	if err := plan.Densities(xs, opt.Sigma, constants.WavenumberFromEigenvalue, opt.UseGAGQ); err != nil {
		return nil, err
	}
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
