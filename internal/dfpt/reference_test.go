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
// environment and the Pulay mixer replaced — every cycle re-partitions the
// occupations, re-gathers the orbital blocks, recomputes the pair weights,
// allocates its matrices through MatMul and creeps toward the fixed point by
// linear mixing — as a test-only reference (the cgref/gemmref pattern). The
// production loop must land on the same self-consistent response, closer to
// it and sooner.

// refResponseDensity is the per-cycle P⁽¹⁾ build without an environment.
func refResponseDensity(m *scf.Model, ground *scf.Result, h1 *linalg.Matrix, smearing float64) *linalg.Matrix {
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
	tmp := linalg.MatMul(true, false, ground.C, h1, m.Ops)
	hmo := linalg.MatMul(false, false, tmp, ground.C, m.Ops)
	// Scale by the occupation-difference ratio: M_qp = w_pq · hmo_qp.
	for q := 0; q < n; q++ {
		row := hmo.Row(q)
		for p := 0; p < n; p++ {
			if p == q {
				row[p] = 0
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
	cm := linalg.MatMul(false, false, ground.C, hmo, m.Ops)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, cm, ground.C, 0, p1, m.Ops)
	p1.Symmetrize()
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
	tmp := linalg.MatMul(true, false, cVirt, h1, m.Ops)
	u := linalg.MatMul(false, false, tmp, cOcc, m.Ops)
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
	vu := linalg.MatMul(false, false, cVirt, u, m.Ops)
	p1 := linalg.NewMatrix(n, n)
	linalg.Gemm(false, true, 1, vu, cOcc, 0, p1, m.Ops)
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

// refAddGammaResponse adds ½S_μν(V⁽¹⁾_A + V⁽¹⁾_B), V⁽¹⁾ = γ·Δq⁽¹⁾, to h1.
func refAddGammaResponse(m *scf.Model, p1, h1 *linalg.Matrix) {
	na, n := m.NumAtoms(), m.Basis.Size()
	dq1 := make([]float64, na)
	for i := 0; i < n; i++ {
		dq1[m.Basis.Funcs[i].Atom] += linalg.Dot(p1.Row(i), m.S.Row(i))
	}
	v1 := make([]float64, na)
	for a := 0; a < na; a++ {
		var s float64
		for b := 0; b < na; b++ {
			s += m.Gamma.At(a, b) * dq1[b]
		}
		v1[a] = s
	}
	for i := 0; i < n; i++ {
		ai := m.Basis.Funcs[i].Atom
		for j := 0; j < n; j++ {
			aj := m.Basis.Funcs[j].Atom
			h1.Add(i, j, 0.5*m.S.At(i, j)*(v1[ai]+v1[aj]))
		}
	}
}

// refPolarizability is γ-mode Polarizability over the reference kernels with
// plain linear mixing, p1 ← (1−β)·p1 + β·F(p1): the same ladder and the same
// convergence test on max|F(p1) − p1|, no environment, no extrapolation.
func refPolarizability(m *scf.Model, ground *scf.Result, opt Options) (*Response, error) {
	n := m.Basis.Size()
	resp := &Response{}
	for dir := 0; dir < 3; dir++ {
		var p1 *linalg.Matrix
		var cycles int
		converged := false
		for _, scale := range []float64{1, 0.5, 0.25, 0.1} {
			mixing := opt.Mixing * scale
			maxIter := min(int(float64(opt.MaxIter)/scale), 3*opt.MaxIter)
			p1 = linalg.NewMatrix(n, n)
			if init := opt.InitP1[dir]; init != nil && init.Rows == n {
				p1.CopyFrom(init)
			}
			h1 := linalg.NewMatrix(n, n)
		cycle:
			for cycles = 1; cycles <= maxIter; cycles++ {
				h1.CopyFrom(m.Dip[dir])
				refAddGammaResponse(m, p1, h1)
				newP1 := refResponseDensity(m, ground, h1, ground.Sigma)
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
				if maxDelta < opt.Tol {
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
	return refResponseDensity(m, ground, h1, ground.Sigma).MaxAbsDiff(p1)
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

// TestGammaResponseMatchesReference: the Pulay-accelerated environment path
// converges to the response the linear-mixing reference creeps toward —
// |Δα| ≤ 1e-6, max|ΔP⁽¹⁾| ≤ 10·Tol — and is the better answer by every
// measure that does not involve the reference: the returned P⁽¹⁾ satisfies
// its own fixed-point equation to Tol, α does not depend on where the solve
// started (cold vs warm agree to 1e-12 wherever the γ kernel's rank fits the
// mixer's history; everywhere else to at most half the
// reference's own ≈ 1e-7 spread), a warm water response takes
// ≤ 10 cycles per direction, and no solve takes more cycles than the
// reference. Gapped and fractional ground states, cold and warm-started,
// kernel widths 1 and 4 — which must agree to the bit.
func TestGammaResponseMatchesReference(t *testing.T) {
	defer par.SetBudget(0)
	type fixture struct {
		name   string
		m      *scf.Model
		ground *scf.Result
		gapped bool
	}
	var fixtures []fixture
	add := func(name string, m *scf.Model, ground *scf.Result, gapped bool) {
		fixtures = append(fixtures, fixture{name, m, ground, gapped})
	}
	m, res := waterModel(t)
	add("water", m, res, true)
	m, res = systemModel(t, structure.BuildWaterDimerSystem(1), scf.DefaultOptions().Smearing)
	add("water dimer", m, res, true)
	m, res = methaneModel(t)
	add("methane", m, res, true)
	m, res = glycineModel(t)
	add("glycine", m, res, true)
	// Raised smearing puts frontier occupations strictly between 0 and 2.
	m, res = systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	add("water dimer σ=0.05", m, res, false)

	for _, fx := range fixtures {
		if got := newCycleEnv(fx.m, fx.ground, nil).gapped; got != fx.gapped {
			t.Fatalf("%s: environment chose gapped=%v, fixture is meant to be gapped=%v (occupations %v)",
				fx.name, got, fx.gapped, fx.ground.Occ)
		}
		opt := DefaultOptions()
		var warm [3]*linalg.Matrix
		var byStart, refByStart []*Response
		for _, start := range []string{"cold", "warm"} {
			opt.InitP1 = warm
			want, err := refPolarizability(fx.m, fx.ground, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, start, err)
			}
			var got *Response
			for _, width := range []int{1, 4} {
				par.SetBudget(width)
				r, err := Polarizability(fx.m, fx.ground, opt)
				if err != nil {
					t.Fatalf("%s %s width %d: %v", fx.name, start, width, err)
				}
				if got == nil {
					got = r
					continue
				}
				for d := 0; d < 3; d++ {
					if !bitEqualMatrix(r.P1[d], got.P1[d]) {
						t.Errorf("%s %s: P1[%d] at width %d differs from width 1 (max |Δ| %g)",
							fx.name, start, d, width, r.P1[d].MaxAbsDiff(got.P1[d]))
					}
				}
				if r.Alpha != got.Alpha || r.Cycles != got.Cycles {
					t.Errorf("%s %s: width %d gives α %v in %d cycles, width 1 %v in %d",
						fx.name, start, width, r.Alpha, r.Cycles, got.Alpha, got.Cycles)
				}
			}
			if d := maxAlphaDiff(got, want); d > 1e-6 {
				t.Errorf("%s %s: max |Δα| = %g against the linear-mixing reference", fx.name, start, d)
			}
			for d := 0; d < 3; d++ {
				if diff := got.P1[d].MaxAbsDiff(want.P1[d]); diff > 10*opt.Tol {
					t.Errorf("%s %s: max |ΔP1[%d]| = %g against the reference, bound %g", fx.name, start, d, diff, 10*opt.Tol)
				}
				if r := refResidual(fx.m, fx.ground, d, got.P1[d]); r > opt.Tol {
					t.Errorf("%s %s: returned P1[%d] misses its fixed point by %g > Tol", fx.name, start, d, r)
				}
			}
			if got.Cycles > want.Cycles || got.MixingUsed != want.MixingUsed {
				t.Errorf("%s %s: %d cycles at damping %g, the reference took %d at %g",
					fx.name, start, got.Cycles, got.MixingUsed, want.Cycles, want.MixingUsed)
			}
			t.Logf("%s %s: %d cycles (reference %d)", fx.name, start, got.Cycles, want.Cycles)
			byStart, refByStart = append(byStart, got), append(refByStart, want)
			// The warm pass starts every direction from a perturbed converged
			// response, like a displaced geometry starts from its reference's.
			for d := range warm {
				warm[d] = want.P1[d].Clone()
				warm[d].Scale(1 + 1e-3)
			}
		}
		spread, refSpread := maxAlphaDiff(byStart[0], byStart[1]), maxAlphaDiff(refByStart[0], refByStart[1])
		// The γ kernel of an N-atom fragment has rank N−1 (charge
		// conservation), its residuals span at most N dimensions, and N+1 of
		// them — one mixer history, if it is that deep — determine the fixed
		// point of the affine response map exactly.
		bound := refSpread / 2
		if fx.m.NumAtoms() < scf.PulayDepth {
			bound = 1e-12
		}
		if spread > bound {
			t.Errorf("%s: cold and warm α differ by %g, bound %g (the reference's differ by %g)", fx.name, spread, bound, refSpread)
		}
		if fx.name == "water" && byStart[1].Cycles > 3*10 {
			t.Errorf("warm water took %d cycles over three directions, ceiling 30", byStart[1].Cycles)
		}
	}
}

// TestWrongShapedInitP1Ignored: a warm start is taken only when both
// dimensions fit; anything else starts cold, never half-copied.
func TestWrongShapedInitP1Ignored(t *testing.T) {
	m, res := waterModel(t)
	cold, err := Polarizability(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := m.Basis.Size()
	for _, shape := range [][2]int{{n, n + 1}, {n, n - 1}, {n + 1, n}, {1, 1}} {
		opt := DefaultOptions()
		bad := linalg.NewMatrix(shape[0], shape[1])
		for i := range bad.Data {
			bad.Data[i] = 1
		}
		opt.InitP1 = [3]*linalg.Matrix{bad, bad, bad}
		got, err := Polarizability(m, res, opt)
		if err != nil {
			t.Fatalf("InitP1 %dx%d: %v", shape[0], shape[1], err)
		}
		if got.Alpha != cold.Alpha || got.Cycles != cold.Cycles {
			t.Errorf("InitP1 %dx%d changed the solve: %d cycles, cold start %d", shape[0], shape[1], got.Cycles, cold.Cycles)
		}
	}
}

// TestGammaCycleAllocationCeiling: the environment owns every buffer and
// bound GEMM of the γ cycle, so a steady-state cycle — response Hamiltonian,
// P⁽¹⁾ build, mixing — allocates nothing, on either kernel side of the GEMM
// crossover and for either phase-1 variant.
func TestGammaCycleAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gammaCycleFixtures(t) {
		env := newCycleEnv(fx.m, fx.ground, nil)
		env.mixer.Reset(0.3)
		if allocs := testing.AllocsPerRun(20, func() { env.gammaCycle(fx.m.Dip[0]) }); allocs != 0 {
			t.Errorf("%s: one γ cycle allocates %v objects, want 0", fx.name, allocs)
		}
	}
}

type cycleFixture struct {
	name   string
	m      *scf.Model
	ground *scf.Result
}

// gammaCycleFixtures are the three fragment sizes of the γ-mode workloads
// (6, 12 and 25 basis functions) plus a fractional ground state.
func gammaCycleFixtures(t testing.TB) []cycleFixture {
	wm, wres := benchModel(t)
	dm, dres := systemModel(t, structure.BuildWaterDimerSystem(1), scf.DefaultOptions().Smearing)
	gm, gres := glycineModel(t)
	fm, fres := systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	return []cycleFixture{{"water", wm, wres}, {"dimer", dm, dres}, {"glycine", gm, gres}, {"dimer-fractional", fm, fres}}
}

// newCycleEnv is a fresh environment seated on (m, ground).
func newCycleEnv(m *scf.Model, ground *scf.Result, grid *gridEnv) *cycleEnv {
	e := new(cycleEnv)
	e.seat(m, ground, grid)
	return e
}

// gammaCycle is one untimed γ-mode cycle of respond on the environment's
// current p1: response Hamiltonian, P⁽¹⁾ build, residual norm, Pulay step.
func (e *cycleEnv) gammaCycle(hExt *linalg.Matrix) {
	e.h1.CopyFrom(hExt)
	e.addGammaResponse()
	e.responseDensity()
	e.residualNorm()
	e.mixer.Next(e.p1.Data, e.newP1.Data, e.p1.Data)
}

// TestWorkspaceReseatMatchesOneShotBitwise: one Workspace carried across
// ground states of one basis size — gapped, then fractional (the phase-1 blocks
// change shape and the bound GEMMs are rebound), then gapped again, then a
// displaced geometry — returns each time the α and P⁽¹⁾ of a one-shot
// Polarizability, bit for bit: nothing of an earlier seat survives.
func TestWorkspaceReseatMatchesOneShotBitwise(t *testing.T) {
	gm, gres := systemModel(t, structure.BuildWaterDimerSystem(1), scf.DefaultOptions().Smearing)
	fm, fres := systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	dm := gm.Displaced(3, 1, 0.02)
	dres, err := dm.SolveSCF(scf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var w Workspace
	for i, fx := range []cycleFixture{{"gapped", gm, gres}, {"fractional", fm, fres}, {"gapped again", gm, gres}, {"displaced", dm, dres}} {
		want, err := Polarizability(fx.m, fx.ground, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Polarizability(fx.m, fx.ground, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got.Alpha != want.Alpha || got.Cycles != want.Cycles {
			t.Errorf("seat %d (%s): α or cycle count differs from the one-shot solve", i, fx.name)
		}
		for dir := range got.P1 {
			if !bitEqualMatrix(got.P1[dir], want.P1[dir]) {
				t.Errorf("seat %d (%s): P1[%d] differs from the one-shot solve", i, fx.name, dir)
			}
		}
	}
}
