// Package raman turns the assembled mass-weighted Hessian and
// polarizability-derivative vectors into Raman spectra. There is one
// spectrum, the paper's Eq. 4 orientation-averaged activity broadened over
// the modes, written as Eq. 5's combination of spectral densities
// dᵀδ_σ(ω−H)d, one per polarizability component plus one for the trace
// term. It is reached by one of two routes, chosen from the problem's sizes
// alone (exactCheaper):
//
//   - Lanczos+GAGQ, the paper's large-system solver: seven K-step
//     recurrences advanced in lockstep by one lanczos.Plan, so each step
//     reads the Hessian once.
//   - The exact measure the quadrature converges to, where one dense
//     eigendecomposition costs less than those K steps (always when the
//     Hessian has no more than K coordinates, whose Krylov space K steps
//     would exhaust): the same start vectors projected on every
//     eigenvector.
//
// The IR spectrum is the same solve with three columns.
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
	// LanczosK is the number of Lanczos steps when the large-system path
	// runs the recurrence. A Hessian whose one dense eigendecomposition is
	// estimated to cost less than K steps — always one with no more than K
	// coordinates, whose Krylov space K steps would exhaust — is solved
	// exactly instead (exactCheaper).
	LanczosK int
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
	xs := make([]float64, o.axisPoints())
	if len(xs) == 0 {
		return nil
	}
	for i := range xs {
		xs[i] = o.FreqMin + float64(i)*o.FreqStep
	}
	return xs
}

// axisPoints is len(o.axis()), without building the axis.
func (o *Options) axisPoints() int {
	pts := (o.FreqMax - o.FreqMin) / o.FreqStep
	if !(o.FreqStep > 0 && pts >= 0 && pts < 1<<31) {
		return 0
	}
	return int(math.Floor(pts+1e-9)) + 1
}

// window returns the indices [lo, hi) of the points of an axis of the given
// length that can lie within ±8σ of w, with a point of margin on each side
// for rounding: the caller's own ±8σ test decides, so looping over the window
// instead of the whole axis changes no bit. Bounds it cannot compute (a NaN)
// give the whole axis.
func (o *Options) window(w float64, points int) (lo, hi int) {
	r := math.Abs(8 * o.Sigma)
	a := math.Floor((w-r-o.FreqMin)/o.FreqStep) - 1
	b := math.Ceil((w+r-o.FreqMin)/o.FreqStep) + 2
	lo, hi = 0, points
	if a > 0 {
		lo = int(math.Min(a, float64(points)))
	}
	if b < float64(points) {
		hi = int(math.Max(b, float64(lo)))
	}
	return lo, hi
}

// eqFourComponentWeights are the per-component weights of the paper's
// Eq. 4 when expanded over the six independent tensor components:
// R ∝ 3/2·(Σ_i a_ii)² + 21/2·Σ_ij a_ij², the off-diagonal components
// appearing twice in the double sum.
var eqFourComponentWeights = [6]float64{10.5, 10.5, 10.5, 21, 21, 21}

const eqFourTraceWeight = 1.5

// modes is a normal-mode analysis: mode p at its wavenumber with the
// weight of the exact measure.
type modes struct {
	// wavenumbers in cm⁻¹ (signed: imaginary modes negative), ascending.
	wavenumbers []float64
	// activity is Σ_c weights[c]·(v_pᵀd_c)² for the start vectors d_c.
	activity []float64
}

// normalModes is the exact route's mode analysis: it densifies h as
// assembled (symmetric bit for bit: the operator the quadrature multiplies
// by), diagonalizes it once, and gives mode p its wavenumber and the
// activity Σ_c weights[c]·a_c², where a_c = v_pᵀ·starts[c] is the projection
// of start vector c on the mode's eigenvector (0 for a nil vector). The
// solve carries the vectors through the reduction and the QL rotations
// (linalg.EigSymProjected) instead of forming the eigenvectors. A Hessian
// the eigensolver cannot converge on — a non-finite one — is an error
// wrapping lanczos.ErrQuadrature: deterministic, never retried.
func normalModes(h *hessian.Sparse, starts [][]float64, weights []float64) (*modes, error) {
	n, w := h.Dim(), len(starts)
	v := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			v.Set(i, int(h.Col[k]), h.Val[k])
		}
	}
	vals := make([]float64, n)
	proj := linalg.NewMatrix(n, w) // row p: the projections on mode p
	for c, d := range starts {
		for i, x := range d {
			proj.Data[i*w+c] = x
		}
	}
	if err := linalg.EigSymProjected(v, vals, proj); err != nil {
		return nil, fmt.Errorf("raman: mode analysis: %w: %w", lanczos.ErrQuadrature, err)
	}
	m := &modes{wavenumbers: make([]float64, n), activity: make([]float64, n)}
	for p, val := range vals {
		m.wavenumbers[p] = constants.WavenumberFromEigenvalue(val)
		a := proj.Row(p)
		var act float64
		for c, wc := range weights {
			act += wc * a[c] * a[c]
		}
		m.activity[p] = act
	}
	return m, nil
}

// spectrum broadens the modes on opt's axis, each by a normalized Gaussian
// of width opt.Sigma cut at ±8σ (the window of the Lanczos rule).
func (m *modes) spectrum(opt Options) *Spectrum {
	xs := opt.axis()
	out := &Spectrum{Freq: xs, Intensity: make([]float64, len(xs))}
	pref := 1 / (math.Sqrt(2*math.Pi) * opt.Sigma)
	for p, w := range m.wavenumbers {
		lo, hi := opt.window(w, len(xs))
		for xi, x := range xs[lo:hi] {
			xi += lo
			dx := (x - w) / opt.Sigma
			if dx > 8 || dx < -8 {
				continue
			}
			out.Intensity[xi] += m.activity[p] * pref * math.Exp(-0.5*dx*dx)
		}
	}
	return out
}

// LanczosSpectrum produces the spectrum with the paper's Eq. 5 solver: seven
// spectral densities (six components + trace) evaluated by Lanczos+GAGQ on
// the sparse mass-weighted Hessian — one lockstep lanczos.Plan solve, one
// pass over the Hessian per step for all seven — or exactly by one
// eigendecomposition where that is estimated to cost less (exactCheaper;
// always for a Hessian of at most opt.LanczosK coordinates). Rigid-body
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
// chosen from the sizes of the problem (exactCheaper): the exact measure
// where one eigendecomposition is estimated to cost less than the K-step
// quadrature, the quadrature otherwise.
func lanczosSpectrum(g *hessian.Global, opt Options, vecs [][]float64, weights []float64) (*Spectrum, error) {
	starts := startVectors(g, vecs)
	if exactCheaper(g.H.Dim(), len(g.H.Val), len(vecs), &opt) {
		return exactSpectrum(g.H, opt, starts, weights)
	}
	return quadratureSpectrum(g.H, opt, starts, weights)
}

// Unit costs of the two spectral routes, in nanoseconds. They were
// calibrated at kernel budget 1 on a 2-vCPU x86-64 host, from best-of-4
// timings of both routes (and of their parts: the product, the recurrence,
// the rule, the densities, the eigensolve) on jittered water boxes of
// n = 243–1125 coordinates at K = 20–200 (EXPERIMENTS.md, "The spectral
// route by cost"); costEig and costRotate again from the median timings of
// the exact route and of the solve carrying 1 and 42 columns on the boxes of
// n = 243–720 once the reduction read rows (EXPERIMENTS.md, "The
// Householder reduction reads rows"). Only their ratios matter.
const (
	costEig    = 0.48 // per n³: the Householder reduction and QL iteration of the densified Hessian
	costRotate = 1.8  // per n² and column: the start vectors carried through the reflectors and rotations
	costBroad  = 20   // per mode and axis point in its ±8σ window
	costMul    = 1.0  // per stored Hessian entry, column and step: the multi-vector product
	costVec    = 5    // per coordinate, column and step: the three-term update, two dots, the scaling
	costSweep  = 1.5  // per coordinate and Lanczos vector a Gram–Schmidt sweep passes over
	sweepShare = 0.1  // expected share of steps that sweep (wb-resume: 60 of 840 at n = 243)
	costRule   = 28   // per (2K−1)² and column: the QL iteration of T̂ carrying its first row
	costDens   = 2.5  // per rule node, axis point and column: the density sum over the whole axis
)

// exactCheaper reports whether the exact route is estimated to cost less
// than the K-step quadrature for cols start vectors on a Hessian of n
// coordinates and stored entries — always when n ≤ K, where K steps would
// exhaust the Krylov space. It reads sizes only (n, stored, cols, K, the axis
// length, σ and the step), never timing or the kernel budget, because the
// route decides the result's bits.
//
// The exact estimate counts the eigensolve, the columns it carries and the
// broadening of n modes over their ±8σ windows. The quadrature's counts, per
// column, K steps of the product and the vector updates, the Gram–Schmidt
// sweeps of an expected share of steps (a sweep at step s passes over about
// 2s vectors, so they sum to sweepShare·K² vectors), the (2K−1)-node rule
// and its density on every axis point. With the other sizes fixed the exact
// estimate grows as n³ and the quadrature's as n (or as the stored entries),
// so once the route turns to the quadrature it stays there as n grows.
func exactCheaper(n, stored, cols int, opt *Options) bool {
	if n <= opt.LanczosK {
		return true
	}
	exact, quad := routeCosts(n, stored, cols, opt)
	return exact <= quad
}

// routeCosts returns exactCheaper's two estimates, in nanoseconds.
func routeCosts(n, stored, cols int, opt *Options) (exact, quad float64) {
	fn, fc, fk := float64(n), float64(cols), float64(opt.LanczosK)
	points := float64(opt.axisPoints())
	window := math.Min(points, math.Floor(16*math.Abs(opt.Sigma)/opt.FreqStep)+1)
	m := 2*fk - 1
	exact = costEig*fn*fn*fn + costRotate*fn*fn*fc + costBroad*fn*window
	quad = fc * (fk*(costMul*float64(stored)+costVec*fn) +
		costSweep*sweepShare*fk*fk*fn + costRule*m*m + costDens*m*points)
	return exact, quad
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

// exactSpectrum is the measure the K-step quadrature converges to, reached
// once K steps exhaust the Krylov space: mode p at its wavenumber with weight
// Σ_c weights[c]·(v_pᵀd_c)², broadened as the rule's nodes are. One O(n³)
// eigendecomposition replaces the recurrences and their (2K−1)-node rules
// where exactCheaper says it costs less; no mode is dropped, as the
// quadrature drops none.
func exactSpectrum(h *hessian.Sparse, opt Options, starts [][]float64, weights []float64) (*Spectrum, error) {
	m, err := normalModes(h, starts, weights)
	if err != nil {
		return nil, err
	}
	if opt.Obs.Enabled() {
		opt.Obs.RecordExactSpectrum()
	}
	return m.spectrum(opt), nil
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
	if err := plan.Densities(xs, opt.Sigma, constants.WavenumberFromEigenvalue); err != nil {
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
