package dfpt

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/par"
	"qframan/internal/poisson"
	"qframan/internal/poisson/cgref"
	"qframan/internal/scf"
	"qframan/internal/structure"
)

// This file keeps grid mode's AO-space DFPT cycle — the paper's four phases
// on the grid (§V-A), the loop the pair-space solve replaced — as the
// test-only oracle of that solve (the cgref/gemmref pattern): per cycle P⁽¹⁾
// is gathered per batch, n⁽¹⁾ = X·P⁽¹⁾·Xᵀ on the points, the Poisson solve,
// H⁽¹⁾ by the reduced kernel Xᵀ·V·(X/2 + ∇X) + transpose (Fig. 6(a)) or the
// naive Xᵀ(VX) + Xᵀ(V∇X) + (V∇X)ᵀX (Fig. 6(b)), and the P⁽¹⁾ build of
// refResponseDensity, iterated by plain linear mixing.

// refGridCounts is what refGridH1 issued: the GEMMs and FLOPs of its phase-2
// and phase-4 lists, and ∫∇n⁽¹⁾ d³r along the field.
type refGridCounts struct {
	gemmsN1, gemmsH1, flopsN1, flopsH1 int64
	gradN1                             float64
}

// refGridH1 adds the grid Coulomb response of p1 (phases 2–4) for field
// direction dir to h1.
func refGridH1(env *gridEnv, p1, h1 *linalg.Matrix, dir int, reduced bool, cnt *refGridCounts) error {
	mat := linalg.NewMatrix
	npts, w := env.g.NumPoints(), env.g.Weight()
	n1, v1 := make([]float64, npts), make([]float64, npts)
	g1, ng := make([]*linalg.Matrix, len(env.batches)), make([]*linalg.Matrix, len(env.batches))
	var calls, naive []linalg.GemmCall
	for bi := range env.batches {
		b := &env.batches[bi]
		pts, nloc := b.x.Rows, b.x.Cols
		p1loc := mat(nloc, nloc)
		for i, fi := range b.funcs {
			for j, fj := range b.funcs {
				p1loc.Set(i, j, p1.At(fi, fj))
			}
		}
		g1[bi] = mat(pts, nloc)
		calls = append(calls, linalg.GemmCall{Alpha: 1, A: b.x, B: p1loc, C: g1[bi]})
		if !reduced {
			ng[bi] = mat(pts, nloc)
			naive = append(naive, linalg.GemmCall{Alpha: 1, A: b.gx[dir], B: p1loc, C: ng[bi]})
		}
	}
	calls = append(calls, naive...)
	gemms, flops := countCalls(calls)
	cnt.gemmsN1 += gemms
	cnt.flopsN1 += flops
	linalg.ExecuteBatched(calls, nil)
	for bi := range env.batches {
		b := &env.batches[bi]
		for p, idx := range b.indices {
			row := g1[bi].Row(p)
			n1[idx] = linalg.Dot(row, b.x.Row(p))
			grad := 2 * linalg.Dot(row, b.gx[dir].Row(p))
			if !reduced {
				grad = linalg.Dot(row, b.gx[dir].Row(p)) + linalg.Dot(ng[bi].Row(p), b.x.Row(p))
			}
			cnt.gradN1 += grad * w
		}
	}
	if err := env.solveV1(n1, v1); err != nil {
		return fmt.Errorf("dfpt: response Poisson solve: %w", err)
	}
	calls = calls[:0]
	type block struct{ bm, m2, m3 *linalg.Matrix }
	blocks := make([]block, len(env.batches))
	for bi := range env.batches {
		b := &env.batches[bi]
		pts, nloc := b.x.Rows, b.x.Cols
		y, vgx := mat(pts, nloc), mat(pts, nloc)
		for p, idx := range b.indices {
			vp := w * v1[idx]
			xr, gr := b.x.Row(p), b.gx[dir].Row(p)
			for c := range xr {
				if reduced {
					y.Set(p, c, vp*(0.5*xr[c]+gr[c]))
				} else {
					y.Set(p, c, vp*xr[c])
					vgx.Set(p, c, vp*gr[c])
				}
			}
		}
		blk := block{bm: mat(nloc, nloc)}
		calls = append(calls, linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: y, C: blk.bm})
		if !reduced {
			blk.m2, blk.m3 = mat(nloc, nloc), mat(nloc, nloc)
			calls = append(calls,
				linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: vgx, C: blk.m2},
				linalg.GemmCall{TransA: true, Alpha: 1, A: vgx, B: b.x, C: blk.m3})
		}
		blocks[bi] = blk
	}
	gemms, flops = countCalls(calls)
	cnt.gemmsH1 += gemms
	cnt.flopsH1 += flops
	linalg.ExecuteBatched(calls, nil)
	for bi := range env.batches {
		b, blk := &env.batches[bi], blocks[bi]
		for i, gi := range b.funcs {
			for j, gj := range b.funcs {
				v := blk.bm.At(i, j) + blk.bm.At(j, i)
				if !reduced {
					v = blk.bm.At(i, j) + blk.m2.At(i, j) + blk.m3.At(i, j)
				}
				h1.Add(gi, gj, v)
			}
		}
	}
	return nil
}

// refGridMap is one AO-space cycle: P⁽¹⁾ of the response Hamiltonian
// D_dir + H⁽¹⁾[p1].
func refGridMap(m *scf.Model, ground *scf.Result, env *gridEnv, dir int, p1 *linalg.Matrix, reduced bool, cnt *refGridCounts) (*linalg.Matrix, error) {
	h1 := m.Dip[dir].Clone()
	if err := refGridH1(env, p1, h1, dir, reduced, cnt); err != nil {
		return nil, err
	}
	return refResponseDensity(m, ground, h1, false), nil
}

// refGridPolarizability iterates the AO-space cycle per direction with plain
// linear mixing, p1 ← (1−β)·p1 + β·F(p1), from zero until
// max|F(p1) − p1| < tol. A response that grows past 1e6 (glycine at β = 0.5)
// starts over at the next β of the ladder.
func refGridPolarizability(m *scf.Model, ground *scf.Result, env *gridEnv, reduced bool, tol float64) (*Response, refGridCounts, error) {
	const maxIter = 1000
	n := m.Basis.Size()
	resp := &Response{}
	var cnt refGridCounts
	for dir := 0; dir < 3; dir++ {
		var p1 *linalg.Matrix
		converged := false
		for _, mixing := range []float64{0.5, 0.25, 0.1} {
			p1 = linalg.NewMatrix(n, n)
			for iter := 1; iter <= maxIter; iter++ {
				next, err := refGridMap(m, ground, env, dir, p1, reduced, &cnt)
				if err != nil {
					return nil, cnt, err
				}
				delta := next.MaxAbsDiff(p1)
				for i, v := range next.Data {
					p1.Data[i] = (1-mixing)*p1.Data[i] + mixing*v
				}
				resp.Cycles++
				if delta < tol || !(delta < 1e6) {
					converged = delta < tol
					break
				}
			}
			if converged {
				break
			}
		}
		if !converged {
			return nil, cnt, fmt.Errorf("reference grid response: direction %d did not converge", dir)
		}
		resp.P1[dir] = p1
		for i := 0; i < 3; i++ {
			resp.Alpha[i][dir] = -traceProduct(p1, m.Dip[i])
		}
	}
	return resp, cnt, nil
}

// gridFixtures are the ground states of the grid-mode oracles: water,
// methane, glycine and, fractional, the water dimer at σ = 0.05.
func gridFixtures(t testing.TB) []cycleFixture {
	var fx []cycleFixture
	for _, f := range gammaFixtures(t) {
		if f.name != "water dimer" {
			fx = append(fx, f)
		}
	}
	return fx
}

// countPoisson makes env count its Poisson solves into *n.
func countPoisson(env *gridEnv, n *int) {
	solve := env.solveV1
	env.solveV1 = func(rho, v []float64) error {
		*n++
		return solve(rho, v)
	}
}

// TestGridResponseMatchesReference: the pair-space solve lands on the
// response the AO-space cycle iterates toward — |Δα| ≤ 1e-9 against the
// cycle run to 1e-13 — and on its fixed point: every returned P⁽¹⁾ goes
// through one AO-space cycle unchanged to 1e-12. One cycle per direction,
// one Poisson solve per pair (nocc·nvirt gapped, n(n−1)/2 fractional), and
// kernel widths 1 and 4 equal to the bit.
func TestGridResponseMatchesReference(t *testing.T) {
	defer par.SetBudget(0)
	for _, fx := range gridFixtures(t) {
		opt := coarseGridOptions()
		env, err := newGridEnv(fx.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		var got *Response
		for _, width := range []int{1, 4} {
			par.SetBudget(width)
			var solves int
			e, err := newGridEnv(fx.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			countPoisson(e, &solves)
			r, err := new(Workspace).polarizability(fx.m, fx.ground, opt, e)
			if err != nil {
				t.Fatalf("%s width %d: %v", fx.name, width, err)
			}
			n, nocc := fx.m.Basis.Size(), fx.m.NumOcc()
			pairs := n * (n - 1) / 2
			if fx.gapped {
				pairs = nocc * (n - nocc)
			}
			if r.Cycles != 3 || solves != pairs {
				t.Errorf("%s: %d cycles and %d Poisson solves, want 3 and %d", fx.name, r.Cycles, solves, pairs)
			}
			if got == nil {
				got = &Response{Alpha: r.Alpha, Cycles: r.Cycles}
				for d := range r.P1 {
					got.P1[d] = r.P1[d].Clone()
				}
			} else if !sameResponse(r, got) {
				t.Errorf("%s: width %d gives α %v, width 1 %v, or P1 bits differ", fx.name, width, r.Alpha, got.Alpha)
			}
		}
		par.SetBudget(0)
		want, _, err := refGridPolarizability(fx.m, fx.ground, env, true, 1e-13)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		dAlpha := maxAlphaDiff(got, want)
		if dAlpha > 1e-9 {
			t.Errorf("%s: max |Δα| = %g against the AO-space cycle", fx.name, dAlpha)
		}
		var residual float64
		for d := 0; d < 3; d++ {
			next, err := refGridMap(fx.m, fx.ground, env, d, got.P1[d], true, new(refGridCounts))
			if err != nil {
				t.Fatal(err)
			}
			residual = math.Max(residual, next.MaxAbsDiff(got.P1[d]))
		}
		if residual > 1e-12 {
			t.Errorf("%s: returned P1 misses its fixed point by %g > 1e-12", fx.name, residual)
		}
		t.Logf("%s: |Δα| %.2g against the AO-space cycle (%d cycles), fixed-point residual %.2g",
			fx.name, dAlpha, want.Cycles, residual)
	}
}

// TestGridAlphaMatchesCGReference: swapping the production Poisson solver
// for the CG reference (run to 1e-12) must not move the polarizability — the
// solver swap changes rounding, not physics — and both sides run one cycle
// per direction.
func TestGridAlphaMatchesCGReference(t *testing.T) {
	m, res := waterModel(t)
	direct, err := Polarizability(m, res, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env, err := newGridEnv(m, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env.solveV1 = func(rho, v []float64) error {
		out, _, err := cgref.Solve(env.g, rho, 1e-12, 100000)
		copy(v, out)
		return err
	}
	ref, err := new(Workspace).polarizability(m, res, gridOptions(), env)
	if err != nil {
		t.Fatal(err)
	}
	var diff2, norm2 float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := direct.Alpha[i][j] - ref.Alpha[i][j]
			diff2 += d * d
			norm2 += ref.Alpha[i][j] * ref.Alpha[i][j]
		}
	}
	if rel := math.Sqrt(diff2 / norm2); rel > 1e-6 {
		t.Fatalf("|Δα|/|α| = %g between the direct solver and the CG reference", rel)
	}
	if direct.Cycles != 3 || ref.Cycles != 3 {
		t.Errorf("%d cycles with the direct solver, %d with the reference; want 3 and 3", direct.Cycles, ref.Cycles)
	}
}

// TestGridCycleAllocationCeiling: the grid environment owns every buffer,
// batch plan and bound GEMM of the pair-space system and binds its kernel
// bodies once, and the cycle environment owns the pair list and the system,
// so a repeated pair-system build and solve — all three directions on one
// environment — allocates nothing, gapped or fractional.
func TestGridCycleAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	for _, fx := range gridFixtures(t) {
		if fx.name == "glycine" {
			continue // the same code on a larger system, at ten times the cost
		}
		opt := coarseGridOptions()
		opt.BatchSide = 4 // more, smaller batches
		grid, err := newGridEnv(fx.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		env := newCycleEnv(fx.m, fx.ground, grid)
		n := fx.m.Basis.Size()
		dst := linalg.NewMatrix(n, n)
		var met PhaseMetrics
		solve := func() {
			for dir := 0; dir < 3; dir++ {
				if err := env.solveGrid(dir, obs.Scope{}, &met, dst); err != nil {
					t.Fatal(err)
				}
			}
		}
		solve() // the first solve sizes the pair space
		if len(grid.batches) < 20 {
			t.Fatalf("%s: only %d batches: the ceiling would not tell per-batch allocation apart", fx.name, len(grid.batches))
		}
		if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
			t.Errorf("%s: one pair-system solve over %d batches allocates %v objects, want 0", fx.name, len(grid.batches), allocs)
		}
	}
}

// TestGridNonFiniteResponseIsPermanent: a NaN in the grid density — here a
// poisoned basis tabulation, which the ground state's orbitals cannot see —
// surfaces from the Poisson phase as poisson.ErrNonFinite, a deterministic
// failure the runtime does not retry, instead of travelling on into the
// pair-space system.
func TestGridNonFiniteResponseIsPermanent(t *testing.T) {
	m, res := waterModel(t)
	env, err := newGridEnv(m, coarseGridOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := &env.batches[len(env.batches)/2]
	b.x.Set(0, 0, math.NaN())
	_, err = new(Workspace).polarizability(m, res, coarseGridOptions(), env)
	if !errors.Is(err, poisson.ErrNonFinite) || !strings.Contains(err.Error(), "response Poisson solve") {
		t.Fatalf("got %v, want poisson.ErrNonFinite from the response Poisson solve", err)
	}
	if faults.Classify(err) != faults.Deterministic {
		t.Fatalf("%v classified as retryable", err)
	}
}

// TestGridFailuresAreTyped: the pair-space solve fails loudly, as the
// deterministic ErrDiverged the smearing ladder escalates on — for a ground
// state with no virtual orbitals, for a NaN orbital coefficient or orbital
// energy (checked before any of it reaches the grid) and for a singular pair
// system (a zero pivot).
func TestGridFailuresAreTyped(t *testing.T) {
	m, res := waterModel(t)
	full, nanC, nanEps := *res, *res, *res
	full.Occ = make([]float64, len(res.Occ))
	for i := range full.Occ {
		full.Occ[i] = 2
	}
	nanC.C = res.C.Clone()
	nanC.C.Set(0, 0, math.NaN())
	nanEps.Eps = append([]float64(nil), res.Eps...)
	nanEps.Eps[0] = math.NaN()
	check := func(name string, err error, text string) {
		t.Helper()
		if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), text) {
			t.Errorf("%s: got %v, want ErrDiverged saying %q", name, err, text)
		} else if faults.Classify(err) != faults.Deterministic {
			t.Errorf("%s: %v classified as retryable", name, err)
		}
	}
	for _, tc := range []struct {
		name   string
		ground *scf.Result
		text   string
	}{
		{"no virtual orbitals", &full, "no virtual orbitals (basis 6, occupied 6)"},
		{"NaN orbital", &nanC, "non-finite orbital coefficient or pair weight"},
		{"NaN energy", &nanEps, "non-finite orbital coefficient or pair weight"},
	} {
		_, err := Polarizability(m, tc.ground, coarseGridOptions())
		check(tc.name, err, tc.text)
	}
	// W = 1 on every pair and M_d = I/2 make I − 2·diag(W)·M_d zero.
	grid, err := newGridEnv(m, coarseGridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env := newCycleEnv(m, res, grid)
	for i := range env.W.Data {
		env.W.Data[i] = 1
	}
	half := linalg.Identity(len(env.pairAt))
	half.Scale(0.5)
	check("zero pivot", env.solvePairs(half), "zero pivot")
}

// TestStrengthReductionExactness: in the AO-space cycle the symmetry-reduced
// kernels (Fig. 6) give the polarizability of the naive ones, with strictly
// fewer GEMM invocations and FLOPs per cycle, and both keep ∫∇n⁽¹⁾ d³r at
// the grid's noise.
func TestStrengthReductionExactness(t *testing.T) {
	m, res := waterModel(t)
	env, err := newGridEnv(m, coarseGridOptions())
	if err != nil {
		t.Fatal(err)
	}
	respR, cntR, err := refGridPolarizability(m, res, env, true, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	respN, cntN, err := refGridPolarizability(m, res, env, false, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAlphaDiff(respR, respN); d > 1e-9 {
		t.Errorf("α differs between reduced and naive kernels by %g", d)
	}
	if respR.Cycles != respN.Cycles {
		t.Fatalf("reduced and naive kernels took %d and %d cycles", respR.Cycles, respN.Cycles)
	}
	// Per cycle, the naive kernels issue 2 GEMMs per batch in phase 2 and 3
	// in phase 4; the reduced ones 1 and 1.
	if cntR.gemmsN1*2 > cntN.gemmsN1 || cntR.gemmsH1*3 > cntN.gemmsH1 {
		t.Errorf("GEMMs: reduced %d/%d vs naive %d/%d — expected 2× and 3× reductions",
			cntR.gemmsN1, cntR.gemmsH1, cntN.gemmsN1, cntN.gemmsH1)
	}
	if cntR.flopsN1 >= cntN.flopsN1 || cntR.flopsH1 >= cntN.flopsH1 {
		t.Error("strength reduction did not reduce FLOPs")
	}
	for name, c := range map[string]refGridCounts{"reduced": cntR, "naive": cntN} {
		if math.Abs(c.gradN1) > 1e-3*float64(respR.Cycles) {
			t.Errorf("%s: ∫∇n1 = %v too large", name, c.gradN1)
		}
	}
}

// TestGridResponseOfFractionalDimer pins the fractional pair layout: the
// σ = 0.05 dimer's pair list is every unordered pair, each at its place in
// u, and the returned P⁽¹⁾ is symmetric.
func TestGridResponseOfFractionalDimer(t *testing.T) {
	m, res := systemModel(t, structure.BuildWaterDimerSystem(1), 0.05)
	grid, err := newGridEnv(m, coarseGridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env := newCycleEnv(m, res, grid)
	n := m.Basis.Size()
	if env.Gapped || len(env.pairAt) != n*(n-1)/2 {
		t.Fatalf("gapped=%v with %d pairs, want fractional with %d", env.Gapped, len(env.pairAt), n*(n-1)/2)
	}
	for q, at := range env.pairAt {
		if l, r := env.pairL[q], env.pairR[q]; l >= r || at != l*n+r {
			t.Fatalf("pair %d = (%d, %d) at %d", q, l, r, at)
		}
	}
	resp, err := new(Workspace).polarizability(m, res, coarseGridOptions(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for d, p := range resp.P1 {
		if !p.IsSymmetric(1e-14) {
			t.Errorf("direction %d: P1 not symmetric", d)
		}
	}
}
