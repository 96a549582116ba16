package raman

import (
	"fmt"

	"qframan/internal/hessian"
)

// IR spectroscopy falls out of the same machinery as Raman: the fragment
// engine delivers ∂μ/∂ξ alongside ∂α/∂ξ, and IR intensity per mode is
// Σ_k (∂μ_k/∂Q_p)². The spectrum is three spectral densities
// d_kᵀ·δσ(ω−H)·d_k evaluated by the same solver that Eq. 5 uses for Raman
// (Lanczos+GAGQ, or the exact measure where one eigendecomposition costs
// less; with three columns instead of seven the recurrence is the cheaper
// route from smaller n on) — a natural extension the paper's framework
// supports.

// LanczosIRSpectrum is the large-system IR solver: three spectral
// densities, one per dipole component, as three columns of the same solve
// LanczosSpectrum runs with seven (and by the same route).
func LanczosIRSpectrum(g *hessian.Global, opt Options) (*Spectrum, error) {
	if g.DDipole[0] == nil {
		return nil, fmt.Errorf("raman: dipole derivatives missing")
	}
	return lanczosSpectrum(g, opt, g.DDipole[:], []float64{1, 1, 1})
}
