package raman

import (
	"fmt"

	"qframan/internal/hessian"
)

// IR spectroscopy falls out of the same machinery as Raman: the displacement
// loop delivers ∂μ/∂ξ alongside ∂α/∂ξ, and IR intensity per mode is
// Σ_k (∂μ_k/∂Q_p)². The large-system path evaluates three spectral
// densities d_kᵀ·δσ(ω−H)·d_k with the same solver that Eq. 5 uses for Raman
// (Lanczos+GAGQ, or the exact measure where one eigendecomposition costs
// less; with three columns instead of seven the recurrence is the cheaper
// route from smaller n on) — a natural extension the paper's framework
// supports.

// DenseIRModes returns per-mode IR intensities from a dense mode analysis.
// A Hessian the eigensolver cannot converge on is an error wrapping
// lanczos.ErrQuadrature.
func DenseIRModes(g *hessian.Global) (*Modes, error) {
	if g.DDipole[0] == nil {
		return nil, fmt.Errorf("raman: dipole derivatives missing")
	}
	return normalModes(g.H, g.DDipole[:], true, func(a []float64) float64 {
		var act float64
		for _, dm := range a {
			act += dm * dm
		}
		return act
	})
}

// DenseIRSpectrum produces the exact IR spectrum, dropping rigid-body modes
// below rigidCutoff cm⁻¹.
func DenseIRSpectrum(g *hessian.Global, opt Options, rigidCutoff float64) (*Spectrum, error) {
	modes, err := DenseIRModes(g)
	if err != nil {
		return nil, err
	}
	return modes.spectrum(opt, rigidCutoff), nil
}

// LanczosIRSpectrum is the large-system IR solver: three spectral
// densities, one per dipole component, as three columns of the same solve
// LanczosSpectrum runs with seven (and by the same route).
func LanczosIRSpectrum(g *hessian.Global, opt Options) (*Spectrum, error) {
	if g.DDipole[0] == nil {
		return nil, fmt.Errorf("raman: dipole derivatives missing")
	}
	return lanczosSpectrum(g, opt, g.DDipole[:], []float64{1, 1, 1})
}
