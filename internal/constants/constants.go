// Package constants provides physical constants, unit conversions, and
// per-element data used throughout the QF-RAMAN reproduction.
//
// Internally the quantum engine works in Hartree atomic units (energy in
// hartree, length in bohr, mass in electron masses), while structure
// generation and user-facing geometry use ångströms and vibrational
// frequencies are reported in cm⁻¹, matching the conventions of the paper's
// Raman spectra (§VI-A).
package constants

import "math"

// Unit conversions.
const (
	// BohrPerAngstrom converts ångströms to bohr.
	BohrPerAngstrom = 1.8897259886
	// AngstromPerBohr converts bohr to ångströms.
	AngstromPerBohr = 1.0 / BohrPerAngstrom
	// EVPerHartree converts hartree to electron volts.
	EVPerHartree = 27.211386245988
	// AMUToElectronMass converts atomic mass units to electron masses.
	AMUToElectronMass = 1822.888486209
	// HartreeToInvCM converts an energy in hartree to a wavenumber in cm⁻¹.
	HartreeToInvCM = 219474.6313632
)

// FreqAUToInvCM converts a harmonic angular frequency in atomic units
// (sqrt of a mass-weighted Hessian eigenvalue, hartree/(bohr²·mₑ)) to cm⁻¹.
//
// If λ is an eigenvalue of the mass-weighted Hessian in atomic units, the
// wavenumber is sqrt(λ)·FreqAUToInvCM for λ ≥ 0.
const FreqAUToInvCM = HartreeToInvCM

// WavenumberFromEigenvalue converts a mass-weighted Hessian eigenvalue in
// atomic units to a signed wavenumber in cm⁻¹: negative eigenvalues (unstable
// modes) map to negative wavenumbers, the usual quantum-chemistry convention.
func WavenumberFromEigenvalue(lambda float64) float64 {
	if lambda < 0 {
		return -math.Sqrt(-lambda) * FreqAUToInvCM
	}
	return math.Sqrt(lambda) * FreqAUToInvCM
}

// Element identifies a chemical element supported by the engine.
type Element uint8

// Supported elements. The fragment engine caps dangling bonds with hydrogen
// and biological systems need only H, C, N, O, S.
const (
	H Element = iota + 1
	C
	N
	O
	S
	numElements
)

// String returns the element symbol.
func (e Element) String() string {
	switch e {
	case H:
		return "H"
	case C:
		return "C"
	case N:
		return "N"
	case O:
		return "O"
	case S:
		return "S"
	}
	return "X"
}

// ElementFromSymbol returns the Element for a symbol such as "C" or "Na".
// The boolean reports whether the symbol is supported.
func ElementFromSymbol(s string) (Element, bool) {
	switch s {
	case "H", "h":
		return H, true
	case "C", "c":
		return C, true
	case "N", "n":
		return N, true
	case "O", "o":
		return O, true
	case "S", "s":
		return S, true
	}
	return 0, false
}

// elemData collects per-element parameters for the SCC tight-binding model.
type elemData struct {
	symbol string
	massA  float64 // atomic mass in amu
	// covalentR is the covalent radius in Å, used for bond detection.
	covalentR float64
	// nOrbitals is the number of valence orbitals in the minimal basis
	// (1 for H: 1s; 4 for C/N/O/S: 2s + 2p).
	nOrbitals int
	// nValence is the number of valence electrons contributed.
	nValence int
	// esS and esP are on-site energies (hartree) of the valence s and p
	// shells, taken from tabulated DFTB-style atomic calculations.
	esS, esP float64
	// hubbardU is the Hubbard parameter (hartree) controlling the
	// second-order charge self-consistency.
	hubbardU float64
	// alpha is the Gaussian exponent (1/bohr²) of the valence orbitals:
	// the minimal basis uses a single normalized Cartesian Gaussian per
	// orbital, sized so that bonded-neighbor overlaps land in the 0.2–0.6
	// range typical of minimal atomic bases.
	alpha float64
}

var elements = [numElements]elemData{
	H: {symbol: "H", massA: 1.00794, covalentR: 0.31, nOrbitals: 1, nValence: 1,
		esS: -0.2386, esP: 0, hubbardU: 0.4195, alpha: 0.40},
	C: {symbol: "C", massA: 12.0107, covalentR: 0.76, nOrbitals: 4, nValence: 4,
		esS: -0.5049, esP: -0.1944, hubbardU: 0.3647, alpha: 0.45},
	N: {symbol: "N", massA: 14.0067, covalentR: 0.71, nOrbitals: 4, nValence: 5,
		esS: -0.6400, esP: -0.2607, hubbardU: 0.4309, alpha: 0.50},
	O: {symbol: "O", massA: 15.9994, covalentR: 0.66, nOrbitals: 4, nValence: 6,
		esS: -0.8788, esP: -0.3321, hubbardU: 0.4954, alpha: 0.60},
	S: {symbol: "S", massA: 32.065, covalentR: 1.05, nOrbitals: 4, nValence: 6,
		esS: -0.6989, esP: -0.2600, hubbardU: 0.3288, alpha: 0.35},
}

// MassAMU returns the atomic mass in amu.
func (e Element) MassAMU() float64 { return elements[e].massA }

// CovalentRadius returns the covalent radius in Å.
func (e Element) CovalentRadius() float64 { return elements[e].covalentR }

// electronegativity holds Pauling electronegativities, used by the graph
// partitioner's cut-quality score: severing a polar bond perturbs the
// fragments' charge distribution more than severing an apolar C–C bond, so
// polar bonds carry a higher severance cost (see FRAGMENTATION.md).
var electronegativity = [numElements]float64{
	H: 2.20, C: 2.55, N: 3.04, O: 3.44, S: 2.58,
}

// Electronegativity returns the Pauling electronegativity of the element.
func (e Element) Electronegativity() float64 { return electronegativity[e] }

// NumOrbitals returns the number of valence basis functions on the element.
func (e Element) NumOrbitals() int { return elements[e].nOrbitals }

// NumValence returns the number of valence electrons the element contributes.
func (e Element) NumValence() int { return elements[e].nValence }

// OnsiteS returns the valence s on-site energy in hartree.
func (e Element) OnsiteS() float64 { return elements[e].esS }

// OnsiteP returns the valence p on-site energy in hartree.
func (e Element) OnsiteP() float64 { return elements[e].esP }

// HubbardU returns the Hubbard parameter in hartree.
func (e Element) HubbardU() float64 { return elements[e].hubbardU }

// GaussianAlpha returns the Gaussian exponent of the valence orbitals in
// 1/bohr².
func (e Element) GaussianAlpha() float64 { return elements[e].alpha }

// Valid reports whether e is a supported element.
func (e Element) Valid() bool { return e >= H && e < numElements }
