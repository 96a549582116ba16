package constants

import (
	"math"
	"testing"
)

func TestUnitConversionsRoundTrip(t *testing.T) {
	if math.Abs(BohrPerAngstrom*AngstromPerBohr-1) > 1e-15 {
		t.Fatal("bohr/Å conversions are not inverses")
	}
	// 1 hartree ≈ 27.211 eV ≈ 219474.6 cm⁻¹: cross-check the ratio.
	if math.Abs(HartreeToInvCM/EVPerHartree-8065.54) > 0.1 {
		t.Fatalf("hartree→cm⁻¹ per eV = %v, want ≈8065.54", HartreeToInvCM/EVPerHartree)
	}
}

func TestWavenumberFromEigenvalue(t *testing.T) {
	// A known case: water's O–H stretch near 3650 cm⁻¹ corresponds to
	// λ = (ν/conv)².
	nu := 3650.0
	lambda := (nu / FreqAUToInvCM) * (nu / FreqAUToInvCM)
	if got := WavenumberFromEigenvalue(lambda); math.Abs(got-nu) > 1e-9 {
		t.Fatalf("round trip gave %v", got)
	}
	// Negative eigenvalues map to negative (imaginary) wavenumbers.
	if got := WavenumberFromEigenvalue(-lambda); math.Abs(got+nu) > 1e-9 {
		t.Fatalf("negative eigenvalue gave %v", got)
	}
	if WavenumberFromEigenvalue(0) != 0 {
		t.Fatal("zero eigenvalue should map to zero")
	}
}

func TestElementData(t *testing.T) {
	for _, el := range []Element{H, C, N, O, S} {
		if !el.Valid() {
			t.Fatalf("%v invalid", el)
		}
		if el.MassAMU() <= 0 || el.CovalentRadius() <= 0 || el.HubbardU() <= 0 || el.GaussianAlpha() <= 0 {
			t.Fatalf("%v has non-positive parameters", el)
		}
		if el.OnsiteS() >= 0 {
			t.Fatalf("%v: valence s level should be bound (negative)", el)
		}
		if el == H {
			if el.NumOrbitals() != 1 || el.NumValence() != 1 {
				t.Fatal("H should have one orbital and one electron")
			}
			continue
		}
		if el.NumOrbitals() != 4 {
			t.Fatalf("%v should carry s+p", el)
		}
		// p levels lie above s levels.
		if el.OnsiteP() <= el.OnsiteS() {
			t.Fatalf("%v: ε_p ≤ ε_s", el)
		}
	}
	// Chemistry orderings: electronegativity trend H < C < N < O on the
	// s levels (deeper = more electronegative).
	if !(O.OnsiteS() < N.OnsiteS() && N.OnsiteS() < C.OnsiteS() && C.OnsiteS() < H.OnsiteS()) {
		t.Fatal("on-site energies do not follow the electronegativity trend")
	}
}

func TestElementSymbols(t *testing.T) {
	for _, c := range []struct {
		sym string
		el  Element
	}{{"H", H}, {"C", C}, {"N", N}, {"O", O}, {"S", S}} {
		got, ok := ElementFromSymbol(c.sym)
		if !ok || got != c.el {
			t.Fatalf("ElementFromSymbol(%q) = %v, %v", c.sym, got, ok)
		}
		if got.String() != c.sym {
			t.Fatalf("%v.String() = %q", got, got.String())
		}
	}
	if _, ok := ElementFromSymbol("Na"); ok {
		t.Fatal("accepted unsupported element")
	}
	if Element(0).Valid() || Element(99).Valid() {
		t.Fatal("invalid element codes accepted")
	}
}
