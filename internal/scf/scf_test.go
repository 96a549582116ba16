package scf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/obs"
	"qframan/internal/par"
)

// waterGeometry returns the experimental water geometry in Å.
func waterGeometry() ([]constants.Element, []geom.Vec3) {
	theta := 104.52 * math.Pi / 180
	return []constants.Element{constants.O, constants.H, constants.H},
		[]geom.Vec3{
			{},
			geom.V(0.9572, 0, 0),
			geom.V(0.9572*math.Cos(theta), 0.9572*math.Sin(theta), 0),
		}
}

// methane returns a tetrahedral CH4 in Å.
func methane() ([]constants.Element, []geom.Vec3) {
	d := 1.09 / math.Sqrt(3)
	return []constants.Element{constants.C, constants.H, constants.H, constants.H, constants.H},
		[]geom.Vec3{
			{},
			geom.V(d, d, d),
			geom.V(d, -d, -d),
			geom.V(-d, d, -d),
			geom.V(-d, -d, d),
		}
}

func solveWater(t *testing.T) (*Model, *Result) {
	t.Helper()
	els, pos := waterGeometry()
	m, err := NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestWaterSCFConverges(t *testing.T) {
	m, res := solveWater(t)
	if res.Iterations <= 1 {
		t.Fatal("SCF converged suspiciously fast; SCC term inactive?")
	}
	// Electron count: tr(P·S) = 8.
	n := traceProduct(res.P, m.S)
	if math.Abs(n-8) > 1e-8 {
		t.Fatalf("tr(PS) = %v, want 8", n)
	}
	// Charge neutrality: Σ Δq = 0.
	var sum float64
	for _, q := range res.DeltaQ {
		sum += q
	}
	if math.Abs(sum) > 1e-8 {
		t.Fatalf("Σ Δq = %v", sum)
	}
	// Oxygen pulls electrons: Δq_O > 0 (electron excess), Δq_H < 0.
	if res.DeltaQ[0] <= 0 || res.DeltaQ[1] >= 0 || res.DeltaQ[2] >= 0 {
		t.Fatalf("unphysical charges %v (want O negative, H positive)", res.DeltaQ)
	}
	// HOMO-LUMO gap positive (closed-shell insulating molecule).
	if res.Gap <= 0 {
		t.Fatalf("gap = %v", res.Gap)
	}
	// Repulsive energy at the reference geometry is exactly zero (FF
	// equilibria frozen there).
	if math.Abs(res.ERep) > 1e-14 {
		t.Fatalf("ERep at reference = %v", res.ERep)
	}
}

func TestEnergyTranslationInvariance(t *testing.T) {
	els, pos := waterGeometry()
	m1, _ := NewModel(els, pos)
	r1, err := m1.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shift := geom.V(3.7, -2.1, 0.9)
	pos2 := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		pos2[i] = p.Add(shift)
	}
	m2, _ := NewModel(els, pos2)
	r2, err := m2.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Energy-r2.Energy) > 1e-10 {
		t.Fatalf("translation changed energy by %g", r1.Energy-r2.Energy)
	}
}

func TestEnergyRotationInvariance(t *testing.T) {
	els, pos := waterGeometry()
	m1, _ := NewModel(els, pos)
	r1, err := m1.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	axis := geom.V(1, 2, -1)
	pos2 := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		pos2[i] = geom.RotateAbout(p, geom.Vec3{}, axis, 0.83)
	}
	m2, _ := NewModel(els, pos2)
	r2, err := m2.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Energy-r2.Energy) > 1e-9 {
		t.Fatalf("rotation changed energy by %g", r1.Energy-r2.Energy)
	}
}

// totalEnergyAt computes the SCF energy with atom a displaced by delta bohr
// along axis.
func totalEnergyAt(t *testing.T, m *Model, atom, axis int, delta float64) float64 {
	t.Helper()
	md := m.Displaced(atom, axis, delta)
	res, err := md.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Energy
}

func testForcesAgainstFD(t *testing.T, els []constants.Element, pos []geom.Vec3) {
	t.Helper()
	m, err := NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	forces := m.Forces(res)
	const h = 1e-4
	for a := 0; a < m.NumAtoms(); a++ {
		want := geom.V(
			-(totalEnergyAt(t, m, a, 0, h)-totalEnergyAt(t, m, a, 0, -h))/(2*h),
			-(totalEnergyAt(t, m, a, 1, h)-totalEnergyAt(t, m, a, 1, -h))/(2*h),
			-(totalEnergyAt(t, m, a, 2, h)-totalEnergyAt(t, m, a, 2, -h))/(2*h),
		)
		if forces[a].Sub(want).Norm() > 2e-6 {
			t.Fatalf("atom %d: analytic force %v vs FD %v (diff %g)",
				a, forces[a], want, forces[a].Sub(want).Norm())
		}
	}
}

func TestForcesMatchFiniteDifferenceWater(t *testing.T) {
	els, pos := waterGeometry()
	testForcesAgainstFD(t, els, pos)
}

func TestForcesMatchFiniteDifferenceMethane(t *testing.T) {
	els, pos := methane()
	testForcesAgainstFD(t, els, pos)
}

func TestForcesMatchFiniteDifferenceDistorted(t *testing.T) {
	// Displaced geometry: FF terms active, Pulay terms large.
	els, pos := waterGeometry()
	pos[1] = pos[1].Add(geom.V(0.08, -0.05, 0.03))
	pos[2] = pos[2].Add(geom.V(-0.04, 0.06, -0.07))
	testForcesAgainstFD(t, els, pos)
}

func TestForcesMatchFDWithStrongSmearing(t *testing.T) {
	// With a large electronic temperature the occupations are genuinely
	// fractional; the analytic forces must equal the gradient of the
	// Mermin free energy (which Result.Energy is).
	els, pos := waterGeometry()
	pos[1] = pos[1].Add(geom.V(0.06, -0.03, 0.02))
	m, err := NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Smearing = 0.08
	res, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm fractionality so the test is not vacuous.
	fractional := false
	for _, f := range res.Occ {
		if f > 0.05 && f < 1.95 {
			fractional = true
		}
	}
	if !fractional {
		t.Fatal("occupations not fractional at σ=0.08; raise σ")
	}
	forces := m.Forces(res)
	const h = 1e-4
	for a := 0; a < m.NumAtoms(); a++ {
		var want geom.Vec3
		for axis := 0; axis < 3; axis++ {
			rp, err := m.Displaced(a, axis, h).SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := m.Displaced(a, axis, -h).SolveSCF(opt)
			if err != nil {
				t.Fatal(err)
			}
			g := -(rp.Energy - rm.Energy) / (2 * h)
			switch axis {
			case 0:
				want.X = g
			case 1:
				want.Y = g
			case 2:
				want.Z = g
			}
		}
		if forces[a].Sub(want).Norm() > 5e-6 {
			t.Fatalf("atom %d: smeared analytic force %v vs FD %v", a, forces[a], want)
		}
	}
}

// refDihedralDeltaGrad is the central-difference gradient of wrap(φ−φ0) the
// closed form replaced, kept as its reference — Richardson-extrapolated from
// steps h and h/2 (error O(h⁴)), so that it stays ten digits good on chains
// bent almost straight, where the third derivative is large.
func refDihedralDeltaGrad(a, b, c, d geom.Vec3, phi0 float64) [4]geom.Vec3 {
	const h = 1e-4
	pts := [4]geom.Vec3{a, b, c, d}
	central := func(p int, unit geom.Vec3) float64 {
		pp, pm := pts, pts
		pp[p], pm[p] = pp[p].Add(unit), pm[p].Sub(unit)
		return (dihedralDelta(pp[0], pp[1], pp[2], pp[3], phi0) -
			dihedralDelta(pm[0], pm[1], pm[2], pm[3], phi0)) / (2 * unit.Norm())
	}
	var out [4]geom.Vec3
	for p := range pts {
		for ax, unit := range [3]geom.Vec3{geom.V(h, 0, 0), geom.V(0, h, 0), geom.V(0, 0, h)} {
			g := (4*central(p, unit.Scale(0.5)) - central(p, unit)) / 3
			switch ax {
			case 0:
				out[p].X = g
			case 1:
				out[p].Y = g
			case 2:
				out[p].Z = g
			}
		}
	}
	return out
}

// TestDihedralGradientMatchesCentralDifferences: the closed-form gradient of
// Δ = wrap(φ−φ0) agrees with central differences to 1e-8 (relative to the
// gradient's size where that exceeds 1) on seeded random quadruples, for
// φ0 = 0, π and random, and on chains bent to within 0.05 rad of collinear;
// its four parts sum to zero; and an exactly collinear chain returns zero.
// Quadruples whose Δ lies within 0.01 rad of the ±π branch cut, where central
// differences straddle the wrap, are skipped.
func TestDihedralGradientMatchesCentralDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	unit := func() geom.Vec3 {
		return geom.V(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()).Normalize()
	}
	bond := func() float64 { return 1 + 1.5*rng.Float64() } // bohr
	checked, worst := 0, 0.0
	for trial := 0; trial < 600; trial++ {
		b := unit().Scale(3 * rng.Float64())
		c := b.Add(unit().Scale(bond()))
		a, d := b.Add(unit().Scale(bond())), c.Add(unit().Scale(bond()))
		if trial%3 == 0 {
			// Near-collinear: a sits 0.01–0.05 rad off the line of b–c.
			axis := c.Sub(b).Normalize()
			off := unit()
			off = off.Sub(axis.Scale(off.Dot(axis))).Normalize()
			angle := 0.01 + 0.04*rng.Float64()
			l := bond()
			a = b.Sub(axis.Scale(l * math.Cos(angle))).Add(off.Scale(l * math.Sin(angle)))
		}
		phi0 := [3]float64{0, math.Pi, math.Pi * (2*rng.Float64() - 1)}[trial%3]
		if delta := dihedralDelta(a, b, c, d, phi0); math.Abs(delta) > math.Pi-0.01 {
			continue
		}
		got, want := dihedralDeltaGrad(a, b, c, d), refDihedralDeltaGrad(a, b, c, d, phi0)
		var sum geom.Vec3
		for p := range got {
			sum = sum.Add(got[p])
			scale := math.Max(1, want[p].Norm())
			diff := got[p].Sub(want[p]).Norm()
			worst = math.Max(worst, diff/scale)
			if diff > 1e-8*scale {
				t.Fatalf("trial %d (φ0 = %g) atom %d: analytic %v, central differences %v (|Δ| = %g)", trial, phi0, p, got[p], want[p], diff)
			}
		}
		if sum.Norm() > 1e-12*math.Max(1, got[0].Norm()) {
			t.Fatalf("trial %d: gradient sums to %v", trial, sum)
		}
		checked++
	}
	if checked < 500 {
		t.Fatalf("only %d quadruples checked", checked)
	}
	t.Logf("%d quadruples, largest relative difference %.1e", checked, worst)
	for _, chain := range [][4]geom.Vec3{
		{{}, geom.V(1, 0, 0), geom.V(2, 0, 0), geom.V(3, 0, 0)},
		{geom.V(0, 1, 0), geom.V(0, 1, 0), geom.V(1, 2, 3), geom.V(2, 0, 1)},
	} {
		if g := dihedralDeltaGrad(chain[0], chain[1], chain[2], chain[3]); g != ([4]geom.Vec3{}) {
			t.Errorf("degenerate chain %v: gradient %v, want zero", chain, g)
		}
	}
}

func TestForcesSumToZero(t *testing.T) {
	els, pos := waterGeometry()
	pos[1] = pos[1].Add(geom.V(0.05, 0.02, -0.01))
	m, _ := NewModel(els, pos)
	res, err := m.SolveSCF(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum geom.Vec3
	for _, f := range m.Forces(res) {
		sum = sum.Add(f)
	}
	if sum.Norm() > 1e-9 {
		t.Fatalf("force sum %v (translation invariance violated)", sum)
	}
}

func TestWaterDipole(t *testing.T) {
	m, res := solveWater(t)
	mu := m.Dipole(res)
	// Water is polar: |μ| between 0.1 and 2 a.u. and symmetric about the
	// bisector plane (z component zero for our planar geometry).
	if mu.Norm() < 0.05 || mu.Norm() > 2.5 {
		t.Fatalf("water dipole magnitude %v a.u. unphysical", mu.Norm())
	}
	if math.Abs(mu.Z) > 1e-9 {
		t.Fatalf("water dipole out of plane: %v", mu)
	}
	// It must point from O toward the H side (positive x+y region).
	if mu.X <= 0 || mu.Y <= 0 {
		t.Fatalf("water dipole direction %v (want toward hydrogens)", mu)
	}
}

func TestFieldShiftsDipole(t *testing.T) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	opt := DefaultOptions()
	r0, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	mu0 := m.Dipole(r0)
	opt.Field = geom.V(0.005, 0, 0)
	r1, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	mu1 := m.Dipole(r1)
	// With H_elec = +E·r for electrons, electrons move toward −E, so the
	// dipole μ = ΣZR − tr(PD) gains a positive x component: polarizability
	// α_xx = ∂μ_x/∂E_x must be positive.
	if (mu1.X-mu0.X)/0.005 <= 0 {
		t.Fatalf("α_xx = %v ≤ 0: field convention broken", (mu1.X-mu0.X)/0.005)
	}
}

func TestOddElectronRejected(t *testing.T) {
	if _, err := NewModel(
		[]constants.Element{constants.H},
		[]geom.Vec3{{}},
	); err == nil {
		t.Fatal("accepted an odd-electron fragment")
	}
}

func TestInvalidSCFOptions(t *testing.T) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	for _, opt := range []Options{
		{MaxIter: 0, Tol: 1e-8, Mixing: 0.4},
		{MaxIter: 10, Tol: 0, Mixing: 0.4},
		{MaxIter: 10, Tol: 1e-8, Mixing: 0},
		{MaxIter: 10, Tol: 1e-8, Mixing: 1.5},
	} {
		// A warm start and an observability scope put a slice and pointers
		// into Options; the error must name the validated fields, not print
		// the struct.
		opt.InitDeltaQ = make([]float64, len(els))
		opt.Obs = obs.NewScope(obs.NewTracer(), obs.NewRegistry())
		_, err := m.SolveSCF(opt)
		if err == nil {
			t.Fatalf("accepted options %+v", opt)
		}
		if msg := err.Error(); strings.Contains(msg, "0x") || !strings.Contains(msg, "MaxIter") {
			t.Errorf("error %q: want the validated fields named and no addresses", msg)
		}
	}
}

// TestNotConvergedIsTyped: running out of iterations is the ErrNotConverged
// sentinel with the message it always had, and the smearing ladder counts
// every rung it takes above the first.
func TestNotConvergedIsTyped(t *testing.T) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	opt := DefaultOptions()
	opt.MaxIter = 2
	_, err := m.SolveSCF(opt)
	if !errors.Is(err, ErrNotConverged) || err.Error() != "scf: not converged after 2 iterations" {
		t.Fatalf("got %v, want ErrNotConverged after 2 iterations", err)
	}
	reg := obs.NewRegistry()
	opt.Obs = obs.NewScope(nil, reg)
	if _, err := m.SolveSCFRobust(opt); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("ladder returned %v, want ErrNotConverged", err)
	}
	if got := reg.Counter(obs.MetricSCFSmearingEscalations).Value(); got != 3 {
		t.Errorf("%s = %d after a ladder that failed on all four rungs, want 3", obs.MetricSCFSmearingEscalations, got)
	}
	opt.MaxIter = DefaultOptions().MaxIter
	if _, err := m.SolveSCFRobust(opt); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.MetricSCFSmearingEscalations).Value(); got != 3 {
		t.Errorf("a first-rung solve moved %s to %d", obs.MetricSCFSmearingEscalations, got)
	}
}

// refOccupations is the Fermi-level search as it used to be — 200 bisections
// of the electron count, μ resolved to its last ulp — kept as the reference
// the early-exit search is compared against.
func refOccupations(eps []float64, ne int, sigma float64) (occ []float64, mu, entropy float64) {
	n := len(eps)
	occ = make([]float64, n)
	count := func(mu float64) float64 {
		var s float64
		for _, e := range eps {
			s += 2 / (1 + math.Exp((e-mu)/sigma))
		}
		return s
	}
	lo, hi := eps[0]-30*sigma, eps[n-1]+30*sigma
	for iter := 0; iter < 200; iter++ {
		mu = 0.5 * (lo + hi)
		if count(mu) < float64(ne) {
			lo = mu
		} else {
			hi = mu
		}
	}
	for i, e := range eps {
		g := 1 / (1 + math.Exp((e-mu)/sigma))
		occ[i] = 2 * g
		if g > 1e-14 && g < 1-1e-14 {
			entropy += 2 * sigma * (g*math.Log(g) + (1-g)*math.Log(1-g))
		}
	}
	return occ, mu, entropy
}

// checkOccupations asserts what any correct Fermi–Dirac filling obeys,
// whatever search produced it: the electrons are counted to fermiTol — or, on
// a spectrum so steep at the Fermi level that no float64 μ does that, μ is
// the last float before the count crosses Nₑ — occupations lie in [0, 2] and
// never rise with the level energy, and the entropy term is not positive.
func checkOccupations(t *testing.T, label string, eps, occ []float64, ne int, sigma, mu, entropy float64) {
	t.Helper()
	var count float64
	for i, f := range occ {
		if !(f >= 0 && f <= 2) {
			t.Fatalf("%s: occ[%d] = %g outside [0, 2]", label, i, f)
		}
		if i > 0 && f > occ[i-1] {
			t.Fatalf("%s: occ[%d] = %g above occ[%d] = %g at a higher level", label, i, f, i-1, occ[i-1])
		}
		count += f
	}
	if d := count - float64(ne); math.Abs(d) > fermiTol*float64(ne) {
		// Toward the root, the neighbouring float must overshoot it.
		next := math.Nextafter(mu, math.Copysign(math.Inf(1), -d))
		var beyond float64
		for _, e := range eps {
			beyond += 2 / (1 + math.Exp((e-next)/sigma))
		}
		if sigma <= 0 || (beyond-float64(ne))*d > 0 {
			t.Fatalf("%s: %d electrons counted as %.17g (off by %g, tolerance %g) with room left to move μ",
				label, ne, count, d, fermiTol*float64(ne))
		}
	}
	if !(entropy <= 0) {
		t.Fatalf("%s: entropy term %g > 0", label, entropy)
	}
}

// TestOccupationsFixedPoint: the Fermi search leaves as soon as the electrons
// are counted, and what it leaves with is a Fermi–Dirac filling — electron
// count to 1e-13·Nₑ, occupations monotone in ε, entropy ≤ 0 — that agrees
// with the fully resolved bisection to the same tolerance, within a ceiling on
// the electron counts it may evaluate: on the four named shapes (gapped,
// fractional, exactly degenerate frontier, σ = 0) and over seeded spectra
// with degenerate levels, a single level, every filling up to all-occupied,
// and σ from 1e-5 to 0.05.
func TestOccupationsFixedPoint(t *testing.T) {
	// A water-like spectrum: four occupied levels, a 0.45 hartree gap.
	water := []float64{-1.12, -0.68, -0.57, -0.49, -0.04, 0.07}
	for _, tc := range []struct {
		name     string
		eps      []float64
		nocc     int
		sigma    float64
		maxEvals int
	}{
		{"gapped", water, 4, 0.002, 8},
		{"fractional", water, 4, 0.05, 12},
		{"degenerate frontier", []float64{-1.12, -0.68, -0.5, -0.5, -0.04, 0.07}, 3, 0.002, 8},
		{"sigma 0", water, 4, 0, 0},
	} {
		occ := make([]float64, len(tc.eps))
		mu, s, evals := occupations(tc.eps, 2*tc.nocc, tc.sigma, occ)
		checkOccupations(t, tc.name, tc.eps, occ, 2*tc.nocc, tc.sigma, mu, s)
		if evals > tc.maxEvals {
			t.Errorf("%s: %d electron counts, ceiling %d", tc.name, evals, tc.maxEvals)
		}
		if !(mu >= tc.eps[tc.nocc-1] && mu <= tc.eps[tc.nocc]) {
			t.Errorf("%s: Fermi level %g outside the frontier pair [%g, %g]", tc.name, mu, tc.eps[tc.nocc-1], tc.eps[tc.nocc])
		}
		switch tc.name {
		case "gapped", "sigma 0":
			for i, f := range occ {
				if want := 2 * float64(btoi(i < tc.nocc)); math.Abs(f-want) > 1e-14 {
					t.Errorf("%s: occ[%d] = %g, want %g", tc.name, i, f, want)
				}
			}
		case "degenerate frontier":
			// Two electrons shared evenly by the degenerate pair.
			if occ[2] != occ[3] || math.Abs(occ[2]-1) > 1e-13 {
				t.Errorf("degenerate frontier: pair occupations %g, %g, want 1, 1", occ[2], occ[3])
			}
		}
		t.Logf("%s: %d electron counts", tc.name, evals)
	}

	rng := rand.New(rand.NewSource(7))
	const trials = 2000
	worst, quick := 0, 0
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(40)
		if trial%25 == 0 {
			n = 1
		}
		eps := make([]float64, n)
		for i := range eps {
			eps[i] = -1.5 + 2.5*rng.Float64()
			if i > 0 && rng.Intn(4) == 0 {
				eps[i] = eps[i-1] // degenerate level
			}
		}
		sort.Float64s(eps)
		sigma := 1e-5 * math.Pow(0.05/1e-5, rng.Float64())
		nocc := 1 + rng.Intn(n)
		if trial%10 == 0 {
			nocc = n // all occupied
		}
		label := fmt.Sprintf("trial %d (n=%d nocc=%d σ=%g)", trial, n, nocc, sigma)
		occ := make([]float64, n)
		for i := range occ {
			occ[i] = math.NaN() // a reused buffer holds anything
		}
		mu, s, evals := occupations(eps, 2*nocc, sigma, occ)
		checkOccupations(t, label, eps, occ, 2*nocc, sigma, mu, s)
		worst = max(worst, evals)
		if evals <= 10 {
			quick++
		}
		// Each occupation is monotone in μ, so two fillings that both count
		// the electrons to the tolerance differ by no more than twice it —
		// plus what the reference's last ulp of μ is worth on a steep level
		// (df/dμ ≤ 1/(2σ)).
		wantOcc, wantMu, wantS := refOccupations(eps, 2*nocc, sigma)
		ulp := math.Nextafter(math.Abs(wantMu), math.Inf(1)) - math.Abs(wantMu)
		occTol := 2*fermiTol*float64(2*nocc) + ulp/sigma
		for i := range occ {
			if d := math.Abs(occ[i] - wantOcc[i]); d > occTol {
				t.Fatalf("%s: occ[%d] = %.17g, resolved bisection %.17g", label, i, occ[i], wantOcc[i])
			}
		}
		// d(−TS) = −Σ (εᵢ − μ) dfᵢ, and μ never leaves the levels by more
		// than the bracket's 30σ.
		if d := math.Abs(s - wantS); d > (eps[n-1]-eps[0]+30*sigma)*float64(n)*occTol {
			t.Fatalf("%s: entropy term %.17g, resolved bisection %.17g", label, s, wantS)
		}
	}
	// The resolved bisection takes ≈ 58 counts on every one of these. The
	// early exit never takes more — it only goes that far where the count is
	// so steep in μ that the bracket collapses before the tolerance is met —
	// and the slow remainder is all-occupied single levels, whose μ lies at
	// the bracket's far edge.
	if worst > 60 || quick < trials*9/10 {
		t.Errorf("%d of %d searches within 10 electron counts, worst %d; want ≥ 90 %% and ≤ 60", quick, trials, worst)
	}
	t.Logf("%d of %d searches within 10 electron counts, worst %d", quick, trials, worst)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestSolveSCFAllocationCeiling: the workspace owns the loop's buffers, its
// bound GEMMs, the mixer's ring and the eigensolver's storage, so one more
// iteration allocates nothing (6.0 objects when EigSym returned fresh results
// and cloned and transposed its input, 15.3 when the DIIS history was
// allocated per step, ≈ 42 when every iteration also cloned H, called MatMul
// and regathered) — and a whole solve in a workspace that has solved before
// allocates nothing either.
func TestSolveSCFAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	for name, geometry := range map[string]func() ([]constants.Element, []geom.Vec3){"water": waterGeometry, "methane": methane} {
		els, pos := geometry()
		m, err := NewModel(els, pos)
		if err != nil {
			t.Fatal(err)
		}
		// An unreachable tolerance makes every solve run exactly MaxIter
		// iterations; the difference of two lengths isolates the loop.
		opt := DefaultOptions()
		opt.Tol = 1e-300
		solve := func(iters int) float64 {
			opt.MaxIter = iters
			return testing.AllocsPerRun(5, func() {
				if _, err := m.SolveSCF(opt); !errors.Is(err, ErrNotConverged) {
					t.Fatalf("%s: %v", name, err)
				}
			})
		}
		const short, long = 20, 60
		perIter := (solve(long) - solve(short)) / (long - short)
		if perIter > 0 {
			t.Errorf("%s: one SCF iteration allocates %.1f objects, want 0", name, perIter)
		}
		ws, conv := NewWorkspace(m), DefaultOptions()
		perSolve := testing.AllocsPerRun(5, func() {
			if _, err := ws.Solve(m, conv); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if perSolve > 0 {
			t.Errorf("%s: a solve in a used workspace allocates %.1f objects, want 0", name, perSolve)
		}
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(nil, nil); err == nil {
		t.Fatal("accepted empty model")
	}
	if _, err := NewModel([]constants.Element{constants.O},
		[]geom.Vec3{{}, {}}); err == nil {
		t.Fatal("accepted mismatched lengths")
	}
}

func TestFFDetectsWaterTopology(t *testing.T) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	if len(m.Bonds) != 2 {
		t.Fatalf("water bonds = %d, want 2", len(m.Bonds))
	}
	if len(m.Angles) != 1 {
		t.Fatalf("water angles = %d, want 1", len(m.Angles))
	}
	if m.Angles[0].J != 0 {
		t.Fatalf("angle vertex = %d, want O (0)", m.Angles[0].J)
	}
}

func TestDisplacedKeepsFFEquilibria(t *testing.T) {
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	md := m.Displaced(1, 0, 0.1)
	// Same bonds with same equilibria, but nonzero ERep now.
	if len(md.Bonds) != len(m.Bonds) || md.Bonds[0].R0 != m.Bonds[0].R0 {
		t.Fatal("displacement changed force-field equilibria")
	}
	if e := md.repulsiveEnergy(); e <= 0 {
		t.Fatalf("displaced repulsive energy %v, want > 0", e)
	}
}

// TestSCFSpanCarriesFermiEvals: the scf span reports the electron counts its
// Fermi searches evaluated next to its iteration count — for gapped water one
// count per iteration, the search leaving from the middle of the gap.
func TestSCFSpanCarriesFermiEvals(t *testing.T) {
	els, pos := waterGeometry()
	m, err := NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	opt := DefaultOptions()
	opt.Obs = obs.NewScope(tr, nil)
	res, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	args := map[string]int64{}
	for _, s := range tr.Snapshot() {
		if s.Name == "scf" {
			for _, a := range s.Args {
				args[a.Key] = a.Val
			}
		}
	}
	if args["iters"] != int64(res.Iterations) || args["fermi_evals"] != int64(res.Iterations) {
		t.Fatalf("scf span args %v, want iters = fermi_evals = %d", args, res.Iterations)
	}
}
