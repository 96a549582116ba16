package dfpt

import (
	"math"
	"testing"

	"qframan/internal/linalg"
	"qframan/internal/scf"
)

// This file keeps the AO-space γ-mode response the pair-space charge closure
// replaced, as a test-only oracle: each solve writes the response potential
// into a dense n×n H⁽¹⁾ = D + ½S∘(V_A + V_B) (refAddPotential) and re-runs the
// four phase-1 GEMMs on it (responseDensity), every direction and every
// second-order pair eliminates I − χ·Γ on its own, and the second order
// re-derives each first-order potential from the Mulliken populations of P⁽ᵇ⁾
// (refAddGammaResponse).

// responseDensity builds newP1 = sym(L·(W∘(Lᵀ·h1·R))·Rᵀ), the uncoupled
// response to the perturbation in h1, with the environment's four phase-1
// GEMMs.
func (e *cycleEnv) responseDensity() {
	e.p1Gemms[0].Run() // tmp = Lᵀ·h1
	e.p1Gemms[1].Run() // u = tmp·R
	for i, w := range e.W.Data {
		e.u.Data[i] *= w
	}
	e.densityMatrix()
}

// aoSpaceResponse is the AO-space field response of (m, ground): per
// direction the bare charges c·K·(W∘(Lᵀ·D·R)), one elimination, H⁽¹⁾ = D +
// ½S∘(V_A + V_B) formed and P⁽¹⁾ = responseDensity; then, for a gapped ground
// state, aoSpaceSecondOrder. It returns P⁽¹⁾ and, gapped, P⁽ᵇᶜ⁾.
func aoSpaceResponse(t *testing.T, m *scf.Model, ground *scf.Result) (p1 [3]*linalg.Matrix, p2 [3][3]*linalg.Matrix) {
	t.Helper()
	e := newCycleEnv(m, ground, nil)
	e.Build(false)
	pairs := len(e.W.Data)
	for dir := range p1 {
		e.h1.CopyFrom(m.Dip[dir])
		e.responseDensity() // leaves W∘(Lᵀ·D·R) in u
		q := make([]float64, len(e.dq[0]))
		for a := range q {
			q[a] = e.ChargeMul * linalg.Dot(e.K[a*pairs:(a+1)*pairs], e.u.Data)
		}
		dq, err := linalg.SolveLinear(e.Sys, q)
		if err != nil {
			t.Fatal(err)
		}
		e.h1.CopyFrom(m.Dip[dir])
		refAddPotential(m, refPotential(m, dq), e.h1)
		e.responseDensity()
		p1[dir] = e.newP1.Clone()
	}
	if e.Gapped {
		p2 = aoSpaceSecondOrder(t, e, p1)
	}
	return p1, p2
}

// aoSpaceSecondOrder is secondOrder as it was before the closure: H⁽ᵇ⁾ from
// the populations of P⁽ᵇ⁾, U⁽ᵇ⁾ and the blocks of H̃⁽ᵇ⁾ by GEMMs on it, and per
// pair b ≤ c one elimination and an H⁽ᵇᶜ⁾ = ½S∘(V_A + V_B) formed and
// projected by two more GEMMs.
func aoSpaceSecondOrder(t *testing.T, e *cycleEnv, p1 [3]*linalg.Matrix) (p2 [3][3]*linalg.Matrix) {
	t.Helper()
	m, n := e.m, e.n
	l, r := e.Left, e.Right
	nl, nr := l.Cols, r.Cols
	pairs := nl * nr
	mat := linalg.NewMatrix
	gemm := func(transA, transB bool, alpha float64, a, b *linalg.Matrix, beta float64, c *linalg.Matrix) {
		linalg.Gemm(transA, transB, alpha, a, b, beta, c)
	}
	var u, hvv, hoo [3]*linalg.Matrix
	tl, tr := mat(nl, n), mat(nr, n)
	for b, p := range p1 {
		e.h1.CopyFrom(m.Dip[b])
		refAddGammaResponse(m, p, e.h1)
		u[b], hvv[b], hoo[b] = mat(nl, nr), mat(nl, nl), mat(nr, nr)
		gemm(true, false, 1, l, e.h1, 0, tl)
		gemm(false, false, 1, tl, r, 0, u[b])
		gemm(false, false, 1, tl, l, 0, hvv[b])
		gemm(true, false, 1, r, e.h1, 0, tr)
		gemm(false, false, 1, tr, r, 0, hoo[b])
		for i, w := range e.W.Data {
			u[b].Data[i] *= 0.5 * w
		}
	}
	roo, rvv := mat(nr, nr), mat(nl, nl)
	xr, xl := mat(n, nr), mat(n, nl)
	src, lu := mat(nl, nr), mat(n, nr)
	wk := make([]float64, pairs)
	for b := 0; b < 3; b++ {
		for c := b; c < 3; c++ {
			gemm(true, false, -1, u[b], u[c], 0, roo)
			gemm(true, false, -1, u[c], u[b], 1, roo)
			gemm(false, true, 1, u[b], u[c], 0, rvv)
			gemm(false, true, 1, u[c], u[b], 1, rvv)
			p := mat(n, n)
			gemm(false, false, 1, r, roo, 0, xr)
			gemm(false, true, 2, xr, r, 0, p)
			gemm(false, false, 1, l, rvv, 0, xl)
			gemm(false, true, 2, xl, l, 1, p)
			gemm(false, false, 1, hvv[b], u[c], 0, src)
			gemm(false, false, -1, u[c], hoo[b], 1, src)
			gemm(false, false, 1, hvv[c], u[b], 1, src)
			gemm(false, false, -1, u[b], hoo[c], 1, src)

			q := refCharges(m, p)
			for i, w := range e.W.Data {
				wk[i] = w * src.Data[i]
			}
			for a := range q {
				q[a] += e.ChargeMul * linalg.Dot(e.K[a*pairs:(a+1)*pairs], wk)
			}
			dq, err := linalg.SolveLinear(e.Sys, q)
			if err != nil {
				t.Fatal(err)
			}
			e.h1.Zero()
			refAddPotential(m, refPotential(m, dq), e.h1)
			gemm(true, false, 1, l, e.h1, 0, tl)
			gemm(false, false, 1, tl, r, 1, src)
			for i, w := range e.W.Data {
				src.Data[i] *= w
			}
			gemm(false, false, 1, l, src, 0, lu)
			gemm(false, true, 1, lu, r, 1, p)
			gemm(false, true, 1, r, lu, 1, p)
			p2[b][c], p2[c][b] = p, p
		}
	}
	return p2
}

// relDiff returns max|a − b| over max|b|.
func relDiff(a, b []float64) float64 {
	var worst, scale float64
	for i, x := range b {
		worst = math.Max(worst, math.Abs(a[i]-x))
		scale = math.Max(scale, math.Abs(x))
	}
	return worst / scale
}

// TestPairSpaceResponseMatchesAOSpaceOracle: the responses the charge closure
// solves, with every response potential entering in pair space, are the
// AO-space oracle's — α, each P⁽¹⁾ and each P⁽ᵇᶜ⁾ to 1e-12 of the quantity's
// largest entry — and the charges a FieldResponse carries are the Mulliken
// charges of the oracle's P⁽¹⁾ and P⁽ᵇᶜ⁾ to the same bound. Gapped ground
// states and the fractional σ = 0.05 dimer, which has no second order.
func TestPairSpaceResponseMatchesAOSpaceOracle(t *testing.T) {
	const tol = 1e-12
	for _, fx := range gammaFixtures(t) {
		wantP1, wantP2 := aoSpaceResponse(t, fx.m, fx.ground)
		resp, err := Polarizability(fx.m, fx.ground, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		var gotAlpha, wantAlpha []float64
		for i := 0; i < 3; i++ {
			for d := 0; d < 3; d++ {
				gotAlpha = append(gotAlpha, resp.Alpha[i][d])
				wantAlpha = append(wantAlpha, -traceProduct(wantP1[d], fx.m.Dip[i]))
			}
		}
		worst := map[string]float64{"α": relDiff(gotAlpha, wantAlpha)}
		for d := range wantP1 {
			worst["P1"] = math.Max(worst["P1"], relDiff(resp.P1[d].Data, wantP1[d].Data))
		}
		if fx.gapped {
			fr, err := new(Workspace).fieldResponse(fx.m, fx.ground, DefaultOptions())
			if err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			for b := 0; b < 3; b++ {
				worst["ΔQ1"] = math.Max(worst["ΔQ1"], relDiff(fr.DQ1[b], refCharges(fx.m, wantP1[b])))
				for c := b; c < 3; c++ {
					worst["P2"] = math.Max(worst["P2"], relDiff(fr.P2[b][c].Data, wantP2[b][c].Data))
					worst["ΔQ2"] = math.Max(worst["ΔQ2"], relDiff(fr.DQ2[b][c], refCharges(fx.m, wantP2[b][c])))
				}
			}
		}
		for _, q := range []string{"α", "P1", "ΔQ1", "P2", "ΔQ2"} {
			if d, ok := worst[q]; ok {
				if !(d <= tol) {
					t.Errorf("%s: %s off the AO-space oracle by %.1e of its largest entry", fx.name, q, d)
				}
				t.Logf("%s: %s off the oracle by %.1e", fx.name, q, d)
			}
		}
	}
}
