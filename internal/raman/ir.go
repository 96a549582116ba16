package raman

import (
	"fmt"
	"math"

	"qframan/internal/constants"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// IR spectroscopy falls out of the same machinery as Raman: the displacement
// loop delivers ∂μ/∂ξ alongside ∂α/∂ξ, and IR intensity per mode is
// Σ_k (∂μ_k/∂Q_p)². The large-system path evaluates three spectral
// densities d_kᵀ·δσ(ω−H)·d_k with the same Lanczos+GAGQ solver that Eq. 5
// uses for Raman — a natural extension the paper's framework supports.

// DenseIRModes returns per-mode IR intensities from a dense mode analysis.
func DenseIRModes(g *hessian.Global) (*Modes, error) {
	if g.DDipole[0] == nil {
		return nil, fmt.Errorf("raman: dipole derivatives missing")
	}
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
		var act float64
		for k := 0; k < 3; k++ {
			var dm float64
			for i := 0; i < n; i++ {
				dm += vecs.At(i, p) * g.DDipole[k][i]
			}
			act += dm * dm
		}
		m.Activity[p] = act
	}
	return m, nil
}

// DenseIRSpectrum produces the exact IR spectrum, dropping rigid-body modes
// below rigidCutoff cm⁻¹.
func DenseIRSpectrum(g *hessian.Global, opt Options, rigidCutoff float64) (*Spectrum, error) {
	modes, err := DenseIRModes(g)
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

// LanczosIRSpectrum is the large-system IR solver: three Lanczos+GAGQ
// spectral densities, one per dipole component, as three columns of the
// same lockstep solve LanczosSpectrum runs with seven.
func LanczosIRSpectrum(g *hessian.Global, opt Options) (*Spectrum, error) {
	if g.DDipole[0] == nil {
		return nil, fmt.Errorf("raman: dipole derivatives missing")
	}
	return lanczosSpectrum(g, opt, g.DDipole[:], []float64{1, 1, 1})
}
