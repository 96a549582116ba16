package dfpt

import (
	"fmt"
	"math"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/scf"
	"qframan/internal/structure"
)

// This file keeps the straight-line γ-mode response code the cycle
// environment and the direct charge-space solve replaced — every cycle
// re-partitions the occupations, re-gathers the orbital blocks, recomputes the
// pair weights, allocates its matrices through MatMul and creeps toward the
// fixed point by linear mixing — as a test-only reference (the cgref/gemmref
// pattern). The direct solve must land on the same self-consistent response,
// on it rather than near it, in one cycle per direction.

// refResponseDensity is the per-cycle P⁽¹⁾ build without an environment: the
// optical response, occupations frozen. With static set, a fractional ground
// state's occupations follow h1 at a fixed electron count, as they do under a
// static field in the SCF: the intraband pairs p = q enter with weight
// f′(ε_p), and the Fermi level shifts by tr(P⁽¹⁾·S)/Σ_p f′_p, which subtracts
// that multiple of F = Σ_p f′_p c_p c_pᵀ.
func refResponseDensity(m *scf.Model, ground *scf.Result, h1 *linalg.Matrix, static bool) *linalg.Matrix {
	smearing := ground.Sigma
	n := m.Basis.Size()
	const occTol = 1e-3
	fractional := false
	for _, f := range ground.Occ {
		if f > occTol && f < 2-occTol {
			fractional = true
			break
		}
	}
	if !fractional {
		return refResponseDensityGapped(m, ground, h1, occTol)
	}
	// hmo = Cᵀ h1 C.
	tmp := linalg.MatMul(true, false, ground.C, h1)
	hmo := linalg.MatMul(false, false, tmp, ground.C)
	// Scale by the occupation-difference ratio: M_qp = w_pq · hmo_qp.
	fprime := make([]float64, n)
	for p, f := range ground.Occ {
		if static && smearing > 0 {
			fprime[p] = -2 / smearing * (f / 2) * (1 - f/2)
		}
	}
	for q := 0; q < n; q++ {
		row := hmo.Row(q)
		for p := 0; p < n; p++ {
			if p == q {
				row[p] *= fprime[p]
				continue
			}
			df := ground.Occ[p] - ground.Occ[q]
			de := ground.Eps[p] - ground.Eps[q]
			switch {
			case math.Abs(de) > 1e-8:
				row[p] *= df / de
			case smearing > 0:
				g := 0.25 * (ground.Occ[p] + ground.Occ[q])
				row[p] *= -2 / smearing * g * (1 - g)
			default:
				row[p] = 0
			}
		}
	}
	cm := linalg.MatMul(false, false, ground.C, hmo)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, cm, ground.C, 0, p1)
	p1.Symmetrize()
	if !static {
		return p1
	}
	var count, s float64
	for i := 0; i < n; i++ {
		count += linalg.Dot(p1.Row(i), m.S.Row(i))
	}
	for _, d := range fprime {
		s += d
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var f float64
			for p, d := range fprime {
				f += d * ground.C.At(i, p) * ground.C.At(j, p)
			}
			p1.Add(i, j, -count/s*f)
		}
	}
	return p1
}

// refResponseDensityGapped is the (near-)integral-occupation specialization:
// P⁽¹⁾ = Z + Zᵀ with Z = C_v·U·C_oᵀ, U_ai = (f_i−f_a)·(c_aᵀ h1 c_i)/(ε_i−ε_a).
func refResponseDensityGapped(m *scf.Model, ground *scf.Result, h1 *linalg.Matrix, occTol float64) *linalg.Matrix {
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
	tmp := linalg.MatMul(true, false, cVirt, h1)
	u := linalg.MatMul(false, false, tmp, cOcc)
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
	vu := linalg.MatMul(false, false, cVirt, u)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, vu, cOcc, 0, p1)
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

// refCharges returns the Mulliken charges Δq_A = Σ_{μ∈A} (P·S)_μμ of p.
func refCharges(m *scf.Model, p *linalg.Matrix) []float64 {
	dq := make([]float64, m.NumAtoms())
	for i := 0; i < m.Basis.Size(); i++ {
		dq[m.Basis.Funcs[i].Atom] += linalg.Dot(p.Row(i), m.S.Row(i))
	}
	return dq
}

// refPotential returns V = γ·Δq.
func refPotential(m *scf.Model, dq []float64) []float64 {
	v := make([]float64, len(dq))
	for a := range v {
		for b, q := range dq {
			v[a] += m.Gamma.At(a, b) * q
		}
	}
	return v
}

// refAddPotential adds ½S_μν(V_A + V_B) to h1.
func refAddPotential(m *scf.Model, v []float64, h1 *linalg.Matrix) {
	n := m.Basis.Size()
	for i := 0; i < n; i++ {
		ai := m.Basis.Funcs[i].Atom
		for j := 0; j < n; j++ {
			aj := m.Basis.Funcs[j].Atom
			h1.Add(i, j, 0.5*m.S.At(i, j)*(v[ai]+v[aj]))
		}
	}
}

// refAddGammaResponse adds ½S_μν(V⁽¹⁾_A + V⁽¹⁾_B), V⁽¹⁾ = γ·Δq⁽¹⁾, to h1.
func refAddGammaResponse(m *scf.Model, p1, h1 *linalg.Matrix) {
	refAddPotential(m, refPotential(m, refCharges(m, p1)), h1)
}

// The reference loop's damping, iteration budget and convergence threshold:
// the response loop's settings before the direct solves.
const (
	refMixing  = 0.3
	refMaxIter = 400
	refTol     = 1e-7
)

// refPolarizability is γ-mode Polarizability over the reference kernels with
// plain linear mixing, p1 ← (1−β)·p1 + β·F(p1): the same ladder and the same
// convergence test on max|F(p1) − p1|, no environment, no extrapolation. With
// static set it is the static response of refResponseDensity instead.
func refPolarizability(m *scf.Model, ground *scf.Result, opt Options, static bool) (*Response, error) {
	n := m.Basis.Size()
	resp := &Response{}
	for dir := 0; dir < 3; dir++ {
		var p1 *linalg.Matrix
		var cycles int
		converged := false
		for _, scale := range []float64{1, 0.5, 0.25, 0.1} {
			mixing := refMixing * scale
			maxIter := min(int(float64(refMaxIter)/scale), 3*refMaxIter)
			p1 = linalg.NewMatrix(n, n)
			if init := opt.InitP1[dir]; init != nil && init.Rows == n {
				p1.CopyFrom(init)
			}
			h1 := linalg.NewMatrix(n, n)
		cycle:
			for cycles = 1; cycles <= maxIter; cycles++ {
				h1.CopyFrom(m.Dip[dir])
				refAddGammaResponse(m, p1, h1)
				newP1 := refResponseDensity(m, ground, h1, static)
				var maxDelta float64
				for i, v := range newP1.Data {
					d := math.Abs(v - p1.Data[i])
					if d > maxDelta {
						maxDelta = d
					}
					if math.IsNaN(d) {
						break cycle
					}
					p1.Data[i] = (1-mixing)*p1.Data[i] + mixing*v
				}
				if maxDelta > 1e12 {
					break
				}
				if maxDelta < refTol {
					converged = true
					break
				}
			}
			if converged {
				resp.MixingUsed = mixing
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("reference response: direction %d did not converge", dir)
		}
		resp.P1[dir] = p1
		resp.Cycles += cycles
		for i := 0; i < 3; i++ {
			resp.Alpha[i][dir] = -traceProduct(p1, m.Dip[i])
		}
	}
	return resp, nil
}

// systemModel builds the SCF model of a whole generated system and solves its
// ground state at the given smearing.
func systemModel(t testing.TB, sys *structure.System, smearing float64) (*scf.Model, *scf.Result) {
	t.Helper()
	els := make([]constants.Element, len(sys.Atoms))
	pos := make([]geom.Vec3, len(sys.Atoms))
	for i, a := range sys.Atoms {
		els[i], pos[i] = a.El, a.Pos
	}
	m, err := scf.NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	opt := scf.DefaultOptions()
	opt.Smearing = smearing
	res, err := m.SolveSCF(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// glycineModel is a free glycine (10 atoms, 25 basis functions, 15 occupied)
// — the size of pep-solv's capped-residue fragments.
func glycineModel(t testing.TB) (*scf.Model, *scf.Result) {
	t.Helper()
	sys, err := structure.BuildProtein("G")
	if err != nil {
		t.Fatal(err)
	}
	return systemModel(t, sys, scf.DefaultOptions().Smearing)
}

func bitEqualMatrix(a, b *linalg.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// refResidual returns max|F(p1) − p1| of the γ-mode response map for field
// direction dir, evaluated with the reference kernels.
func refResidual(m *scf.Model, ground *scf.Result, dir int, p1 *linalg.Matrix) float64 {
	h1 := m.Dip[dir].Clone()
	refAddGammaResponse(m, p1, h1)
	return refResponseDensity(m, ground, h1, false).MaxAbsDiff(p1)
}

func maxAlphaDiff(a, b *Response) float64 {
	var d float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d = math.Max(d, math.Abs(a.Alpha[i][j]-b.Alpha[i][j]))
		}
	}
	return d
}

// sameResponse reports whether two responses agree in α, in cycle count and
// in every bit of every P⁽¹⁾.
func sameResponse(a, b *Response) bool {
	if a.Alpha != b.Alpha || a.Cycles != b.Cycles {
		return false
	}
	for d := range a.P1 {
		if !bitEqualMatrix(a.P1[d], b.P1[d]) {
			return false
		}
	}
	return true
}

type cycleFixture struct {
	name   string
	m      *scf.Model
	ground *scf.Result
	gapped bool // the phase-1 variant the ground state is meant to select
}

// gammaFixtures are the ground states of the γ-mode oracles: the fragment
// sizes of the γ-mode workloads (water, water dimer and glycine: 6, 12 and 25
// basis functions), methane, and a fractional ground state — raised smearing
// puts the dimer's frontier occupations strictly between 0 and 2.
func gammaFixtures(t testing.TB) []cycleFixture {
	t.Helper()
	var fx []cycleFixture
	add := func(name string, m *scf.Model, ground *scf.Result, gapped bool) {
		fx = append(fx, cycleFixture{name, m, ground, gapped})
	}
	m, res := waterModel(t)
	add("water", m, res, true)
	m, res = systemModel(t, structure.BuildWaterDimerSystem(1), scf.DefaultOptions().Smearing)
	add("water dimer", m, res, true)
	m, res = methaneModel(t)
	add("methane", m, res, true)
	m, res = glycineModel(t)
	add("glycine", m, res, true)
	m, res = systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	add("water dimer σ=0.05", m, res, false)
	return fx
}

// TestGammaResponseMatchesReference: the direct γ-mode solve lands on the
// response the linear-mixing reference creeps toward — |Δα| ≤ 1e-6 — and on
// the fixed point itself: every returned P⁽¹⁾ satisfies its own fixed-point
// equation to 1e-12 (evaluated with the reference kernels), where the
// reference stops at Tol = 1e-7. One cycle per direction, MixingUsed the
// requested damping, kernel widths 1 and 4 equal to the bit, and a warm start
// (InitP1, which γ mode does not read) moves no bit. Gapped and fractional
// ground states.
func TestGammaResponseMatchesReference(t *testing.T) {
	defer par.SetBudget(0)
	for _, fx := range gammaFixtures(t) {
		if got := newCycleEnv(fx.m, fx.ground, nil).Gapped; got != fx.gapped {
			t.Fatalf("%s: environment chose gapped=%v, fixture is meant to be gapped=%v (occupations %v)",
				fx.name, got, fx.gapped, fx.ground.Occ)
		}
		opt := DefaultOptions()
		want, err := refPolarizability(fx.m, fx.ground, opt, false)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		var got *Response
		for _, width := range []int{1, 4} {
			par.SetBudget(width)
			r, err := Polarizability(fx.m, fx.ground, opt)
			if err != nil {
				t.Fatalf("%s width %d: %v", fx.name, width, err)
			}
			if got == nil {
				got = r
			} else if !sameResponse(r, got) {
				t.Errorf("%s: width %d gives α %v, width 1 %v, or P1 bits differ", fx.name, width, r.Alpha, got.Alpha)
			}
		}
		if got.Cycles != 3 || got.MixingUsed != opt.Mixing {
			t.Errorf("%s: %d cycles at damping %g, want 3 at %g", fx.name, got.Cycles, got.MixingUsed, opt.Mixing)
		}
		dAlpha := maxAlphaDiff(got, want)
		if dAlpha > 1e-6 {
			t.Errorf("%s: max |Δα| = %g against the linear-mixing reference", fx.name, dAlpha)
		}
		var residual float64
		for d := 0; d < 3; d++ {
			residual = math.Max(residual, refResidual(fx.m, fx.ground, d, got.P1[d]))
		}
		if residual > 1e-12 {
			t.Errorf("%s: returned P1 misses its fixed point by %g > 1e-12", fx.name, residual)
		}
		// The warm start a displaced geometry would once have been handed: a
		// perturbed converged response.
		warmOpt := opt
		for d := range warmOpt.InitP1 {
			warmOpt.InitP1[d] = want.P1[d].Clone()
			warmOpt.InitP1[d].Scale(1 + 1e-3)
		}
		warm, err := Polarizability(fx.m, fx.ground, warmOpt)
		if err != nil {
			t.Fatalf("%s warm: %v", fx.name, err)
		}
		if !sameResponse(warm, got) {
			t.Errorf("%s: a warm start moved the response", fx.name)
		}
		t.Logf("%s: |Δα| %.2g against the reference (%d cycles), fixed-point residual %.2g", fx.name, dAlpha, want.Cycles, residual)
	}
}

// TestSusceptibilityMatchesUnitPotentialBuilds: the pair-space χ is what it
// claims to be — column B equals the Mulliken charges of the P⁽¹⁾ that the
// reference build (refResponseDensity) gives for a unit potential on atom B,
// applied as refAddPotential applies a potential — to 1e-12 of χ's largest
// entry. The static χ of the charge loop's Newton step equals, column for
// column, the charges of the static reference build (intraband pairs, Fermi
// shift) for the same potential, and has 1ᵀ·χ = 0; on a gapped ground state
// it is the optical χ to the bit.
func TestSusceptibilityMatchesUnitPotentialBuilds(t *testing.T) {
	for _, fx := range gammaFixtures(t) {
		env := newCycleEnv(fx.m, fx.ground, nil)
		env.Build(false)
		optical := env.Chi.Clone()
		static := newCycleEnv(fx.m, fx.ground, nil)
		static.Build(true)
		if fx.gapped && !bitEqualMatrix(static.Chi, optical) {
			t.Errorf("%s: the static χ of a gapped ground state differs from the optical one", fx.name)
		}
		var scale, worst, worstStatic, colSum float64
		for _, x := range env.Chi.Data {
			scale = math.Max(scale, math.Abs(x))
		}
		for b := 0; b < fx.m.NumAtoms(); b++ {
			v := make([]float64, fx.m.NumAtoms())
			v[b] = 1
			h1 := linalg.NewMatrix(fx.m.Basis.Size(), fx.m.Basis.Size())
			refAddPotential(fx.m, v, h1)
			for a, q := range refCharges(fx.m, refResponseDensity(fx.m, fx.ground, h1, false)) {
				worst = math.Max(worst, math.Abs(q-env.Chi.At(a, b)))
			}
			var sum float64
			for a, q := range refCharges(fx.m, refResponseDensity(fx.m, fx.ground, h1, true)) {
				worstStatic = math.Max(worstStatic, math.Abs(q-static.Chi.At(a, b)))
				sum += static.Chi.At(a, b)
			}
			colSum = math.Max(colSum, math.Abs(sum))
		}
		if scale == 0 || worst > 1e-12*scale {
			t.Errorf("%s: χ differs from the unit-potential builds by %g (largest entry %g)", fx.name, worst, scale)
		}
		if worstStatic > 1e-12*scale || colSum > 1e-12*scale {
			t.Errorf("%s: static χ differs from the static reference builds by %g, columns sum to %g", fx.name, worstStatic, colSum)
		}
	}
}

// TestGammaCycleAllocationCeiling: the workspace owns every buffer and bound
// GEMM of the direct γ-mode solve — the pair-space vectors, χ, the system and
// the copy a solve destroys — so a repeated Workspace.Polarizability on one
// basis size allocates nothing, on either kernel side of the GEMM crossover
// and for either phase-1 variant.
func TestGammaCycleAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaFixtures(t) {
		var w Workspace
		solve := func() {
			if _, err := w.Polarizability(fx.m, fx.ground, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		solve() // the first solve sizes the workspace
		if allocs := testing.AllocsPerRun(20, solve); allocs != 0 {
			t.Errorf("%s: one Polarizability allocates %v objects, want 0", fx.name, allocs)
		}
	}
}

// newCycleEnv is a fresh environment seated on (m, ground).
func newCycleEnv(m *scf.Model, ground *scf.Result, grid *gridEnv) *cycleEnv {
	e := new(cycleEnv)
	e.seat(m, ground, grid)
	return e
}

// TestWorkspaceReseatMatchesOneShotBitwise: one Workspace carried across
// ground states of one basis size — gapped, then fractional in grid mode and
// in γ mode (the phase-1 blocks change shape and the bound GEMMs are rebound,
// the γ mode's ½S products after grid mode rebound the others), then gapped
// again, then a displaced geometry — returns each time the α and P⁽¹⁾ of a
// one-shot Polarizability, bit for bit: nothing of an earlier seat survives.
func TestWorkspaceReseatMatchesOneShotBitwise(t *testing.T) {
	gm, gres := systemModel(t, structure.BuildWaterDimerSystem(1), scf.DefaultOptions().Smearing)
	fm, fres := systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	dm := gm.Displaced(3, 1, 0.02)
	dres, err := dm.SolveSCF(scf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gamma, grid := DefaultOptions(), coarseGridOptions()
	var w Workspace
	for i, fx := range []struct {
		cycleFixture
		opt Options
	}{
		{cycleFixture{"gapped", gm, gres, true}, gamma},
		{cycleFixture{"fractional, grid", fm, fres, false}, grid},
		{cycleFixture{"fractional", fm, fres, false}, gamma},
		{cycleFixture{"gapped again", gm, gres, true}, gamma},
		{cycleFixture{"displaced", dm, dres, true}, gamma},
	} {
		want, err := Polarizability(fx.m, fx.ground, fx.opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Polarizability(fx.m, fx.ground, fx.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResponse(got, want) {
			t.Errorf("seat %d (%s): α, cycle count or P1 bits differ from the one-shot solve", i, fx.name)
		}
	}
}
