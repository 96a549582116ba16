package dfpt

import (
	"fmt"
	"math"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/scf"
)

// tightSCF converges the charges far below anything a Richardson difference
// of α can see, at the smearing sigma.
func tightSCF(sigma float64) scf.Options {
	o := scf.DefaultOptions()
	o.Tol = 1e-13
	o.MaxIter = 2000
	o.Smearing = sigma
	return o
}

// derivFixture is a model whose grid ∂α the oracles below check: its tight
// ground state and its nuclear response.
type derivFixture struct {
	name   string
	m      *scf.Model
	ground *scf.Result
	nr     *scf.NuclearResponse
	coords []int // the coordinates the finite-difference oracles visit
}

func newDerivFixture(t testing.TB, name string, els []constants.Element, pos []geom.Vec3, sigma float64, coords []int) derivFixture {
	t.Helper()
	m, err := scf.NewModel(els, pos)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := m.SolveSCF(tightSCF(sigma))
	if err != nil {
		t.Fatal(err)
	}
	_, nr, err := Responses(m, ground, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if coords == nil {
		for c := 0; c < 3*len(els); c++ {
			coords = append(coords, c)
		}
	}
	return derivFixture{name: name, m: m, ground: ground, nr: nr, coords: coords}
}

// planarWaterPos is the package's test water: every atom at z = 0, O and the
// first H at y = 0 — ties for the grid's lowest atom along y and z.
func planarWaterPos() []geom.Vec3 {
	theta := 104.52 * math.Pi / 180
	return []geom.Vec3{{}, geom.V(0.9572, 0, 0), geom.V(0.9572*math.Cos(theta), 0.9572*math.Sin(theta), 0)}
}

// genericWaterPos is the test water turned about a generic axis and moved
// off the origin: along every axis its atoms lie at least 0.18 bohr apart,
// so no step of the loop crosses a change of the lowest atom.
func genericWaterPos() []geom.Vec3 {
	axis := geom.V(0.3, -0.5, 0.81).Normalize()
	var out []geom.Vec3
	for _, p := range planarWaterPos() {
		out = append(out, geom.RotateAbout(p, geom.Vec3{}, axis, 1.1).Add(geom.V(0.11, -0.23, 0.37)))
	}
	return out
}

var waterEls = []constants.Element{constants.O, constants.H, constants.H}

// loopAlpha is one displaced job of the displacement loop's grid α: the model
// with coordinate c moved by delta, its tight ground state, and its grid
// polarizability — on the grid g when g is non-nil (the frozen grid), on the
// grid that covers the displaced atoms otherwise (the moving grid).
func loopAlpha(t testing.TB, fx derivFixture, c int, delta float64, g *grid.Grid, opt Options) [3][3]float64 {
	t.Helper()
	md := fx.m.Displaced(c/3, c%3, delta)
	so := tightSCF(fx.ground.Sigma)
	so.InitDeltaQ = fx.ground.DeltaQ
	res, err := md.SolveSCF(so)
	if err != nil {
		t.Fatal(err)
	}
	var env *gridEnv
	if g != nil {
		env, err = newGridEnvOn(md, g, opt)
	} else {
		env, err = newGridEnv(md, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := new(Workspace).polarizability(md, res, opt, env)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Alpha
}

// loopDerivative is the loop's central difference of α along coordinate c
// with step h.
func loopDerivative(t testing.TB, fx derivFixture, c int, h float64, g *grid.Grid, opt Options) [3][3]float64 {
	plus, minus := loopAlpha(t, fx, c, h, g, opt), loopAlpha(t, fx, c, -h, g, opt)
	var d [3][3]float64
	for i := range d {
		for j := range d[i] {
			d[i][j] = (plus[i][j] - minus[i][j]) / (2 * h)
		}
	}
	return d
}

// maxAbsDAlpha is the largest |∂α| of the six components.
func maxAbsDAlpha(da [3][3][]float64) float64 {
	var s float64
	for _, bc := range alphaPairs {
		for _, v := range da[bc[0]][bc[1]] {
			s = math.Max(s, math.Abs(v))
		}
	}
	return s
}

// TestGridAlphaDerivativesMatchFrozenLoop: on a grid held fixed at the
// reference, the adjoint ∂α agrees with a Richardson extrapolation of the
// displacement loop's central differences (steps 0.005 and 0.0025 bohr) to
// 1e-7 of max|∂α|, on the planar and a generic-orientation water and on
// glycine (three coordinates: the loop's glycine solves are the slow part) at
// half the default smearing. At the default smearing glycine's frontier
// occupations sit 6·10⁻⁷ off 0 and 2, which the nuclear response (shared with
// the Hessian) treats as integral: there the bound is 1e-6 (measured
// 2.2·10⁻⁷). -short leaves glycine out.
func TestGridAlphaDerivativesMatchFrozenLoop(t *testing.T) {
	opt := coarseGridOptions()
	sigma := scf.DefaultOptions().Smearing
	type oracle struct {
		fx  derivFixture
		tol float64
	}
	cases := []oracle{
		{newDerivFixture(t, "planar water", waterEls, planarWaterPos(), sigma, nil), 1e-7},
		{newDerivFixture(t, "generic water", waterEls, genericWaterPos(), sigma, nil), 1e-7},
	}
	if !testing.Short() { // glycine's loop solves take seconds, a minute under -race
		cases = append(cases, oracle{glycineFixture(t, sigma/2), 1e-7}, oracle{glycineFixture(t, sigma), 1e-6})
	}
	for _, c := range cases {
		fx := c.fx
		env, err := newGridEnv(fx.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		da, err := frozenGridAlphaDerivatives(fx.m, fx.ground, fx.nr, opt, env)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		scale := maxAbsDAlpha(da)
		var worst float64
		for _, y := range fx.coords {
			const h = 0.005
			d1 := loopDerivative(t, fx, y, h, env.g, opt)
			d2 := loopDerivative(t, fx, y, h/2, env.g, opt)
			for _, bc := range alphaPairs {
				b, cc := bc[0], bc[1]
				rich := (4*d2[b][cc] - d1[b][cc]) / 3
				worst = math.Max(worst, math.Abs(da[b][cc][y]-rich))
			}
		}
		t.Logf("%s: adjoint vs Richardson frozen loop %.1e of max|∂α| %.3f", fx.name, worst/scale, scale)
		if worst > c.tol*scale {
			t.Errorf("%s: adjoint ∂α off the frozen loop by %.1e of max|∂α| %.3f", fx.name, worst/scale, scale)
		}
	}
}

// glycineFixture is the free glycine at the smearing sigma, its coordinates a
// sample of atoms and axes.
func glycineFixture(t testing.TB, sigma float64) derivFixture {
	m, _ := glycineModel(t)
	return newDerivFixture(t, fmt.Sprintf("glycine σ=%g", sigma), m.Els, angstrom(m.Pos), sigma, []int{1, 3*3 + 2, 3*7 + 0})
}

// angstrom converts model positions back to the ångströms NewModel takes.
func angstrom(pos []geom.Vec3) []geom.Vec3 {
	out := make([]geom.Vec3, len(pos))
	for i, p := range pos {
		out[i] = p.Scale(1 / constants.BohrPerAngstrom)
	}
	return out
}

// TestGridAlphaDerivativesFollowTheGrid: with the origin correction the
// adjoint ∂α is the derivative of the α the displacement loop computes, whose
// grid grid.Cover lays over each displaced geometry: on the generic water it
// agrees with the loop's central differences at the loop's step to 1e-4 of
// max|∂α|. On the planar water every atom ties for the lowest z and two for
// the lowest y: each tied atom moves the origin by ½ (pinned), which brings
// the agreement to 2e-3 — the rest is the point count along z jumping under
// the −z displacements, as 2·margin/h is 10 exactly — where giving the whole
// share to one tied atom leaves it 5e-2 off.
func TestGridAlphaDerivativesFollowTheGrid(t *testing.T) {
	opt := coarseGridOptions()
	const step = 5e-3 // hessian.DefaultStep
	sigma := scf.DefaultOptions().Smearing
	planar := newDerivFixture(t, "planar water", waterEls, planarWaterPos(), sigma, nil)
	if got, want := originShares(planar.m.Pos), []float64{0, 0.5, 0.5, 0, 0.5, 0.5, 1, 0, 0.5}; !slicesEqual(got, want) {
		t.Fatalf("planar water origin shares %v, want %v", got, want)
	}
	for _, c := range []struct {
		fx  derivFixture
		tol float64
	}{
		{newDerivFixture(t, "generic water", waterEls, genericWaterPos(), sigma, nil), 1e-4},
		{planar, 2e-3},
	} {
		fx := c.fx
		da, err := GridAlphaDerivatives(fx.m, fx.ground, fx.nr, opt)
		if err != nil {
			t.Fatal(err)
		}
		env, err := newGridEnv(fx.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		frozen, err := frozenGridAlphaDerivatives(fx.m, fx.ground, fx.nr, opt, env)
		if err != nil {
			t.Fatal(err)
		}
		scale := maxAbsDAlpha(da)
		var worst, worstFrozen, worstOneShare float64
		for _, y := range fx.coords {
			loop := loopDerivative(t, fx, y, step, nil, opt)
			for _, bc := range alphaPairs {
				b, cc := bc[0], bc[1]
				worst = math.Max(worst, math.Abs(da[b][cc][y]-loop[b][cc]))
				worstFrozen = math.Max(worstFrozen, math.Abs(frozen[b][cc][y]-loop[b][cc]))
				// One tied atom taking the whole share: the first lowest.
				one := frozen[b][cc][y]
				ax := y % 3
				first := 0
				for a := range fx.m.Pos {
					if coord(fx.m.Pos[a], ax) < coord(fx.m.Pos[first], ax) {
						first = a
					}
				}
				if y/3 == first {
					var sum float64
					for i := ax; i < len(frozen[b][cc]); i += 3 {
						sum += frozen[b][cc][i]
					}
					one -= sum
				}
				worstOneShare = math.Max(worstOneShare, math.Abs(one-loop[b][cc]))
			}
		}
		t.Logf("%s vs the moving-grid loop: corrected %.1e, frozen %.1e, one share per axis %.1e of max|∂α| %.3f",
			fx.name, worst/scale, worstFrozen/scale, worstOneShare/scale, scale)
		if worst > c.tol*scale {
			t.Errorf("%s: corrected ∂α off the moving-grid loop by %.1e of max|∂α|", fx.name, worst/scale)
		}
		if fx.name == "planar water" && worstOneShare < 5e-2*scale {
			t.Errorf("%s: one share per axis is only %.1e off: the tie rule is not what the test pins", fx.name, worstOneShare/scale)
		}
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridAlphaTranslationIdentity is the identity the origin correction
// rests on: grid mode's α with the grid's origin moved by t equals α of the
// fragment moved by −t on the original grid, to 1e-12 — the pair densities
// see only positions relative to the grid, and the dipole integrals' shift
// −t·S drops out of Lᵀ·D·R because LᵀSR = 0. The ground state is the
// reference's for both: the translated model's integrals are its to rounding.
func TestGridAlphaTranslationIdentity(t *testing.T) {
	opt := coarseGridOptions()
	fx := newDerivFixture(t, "generic water", waterEls, genericWaterPos(), scf.DefaultOptions().Smearing, []int{})
	shift := geom.V(0.3, -0.2, 0.45)
	g := grid.Cover(fx.m.Pos, opt.GridMargin, opt.GridSpacing)
	moved := *g
	moved.Origin = g.Origin.Add(shift)
	alpha := func(m *scf.Model, g *grid.Grid) [3][3]float64 {
		env, err := newGridEnvOn(m, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := new(Workspace).polarizability(m, fx.ground, opt, env)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Alpha
	}
	mt := fx.m
	for a := range mt.Pos {
		for ax, d := range [3]float64{shift.X, shift.Y, shift.Z} {
			mt = mt.Displaced(a, ax, -d)
		}
	}
	want, got, fixed := alpha(fx.m, &moved), alpha(mt, g), alpha(fx.m, g)
	var worst, moves, scale float64
	for i := range want {
		for j := range want[i] {
			worst = math.Max(worst, math.Abs(got[i][j]-want[i][j]))
			moves = math.Max(moves, math.Abs(fixed[i][j]-want[i][j]))
			scale = math.Max(scale, math.Abs(want[i][j]))
		}
	}
	if moves < 1e-6*scale {
		t.Fatalf("moving the origin moves α by only %.1e: the identity would hold vacuously", moves/scale)
	}
	t.Logf("α on the moved grid vs α of the moved fragment: %.1e of max|α| %.3f", worst/scale, scale)
	if worst > 1e-12*scale {
		t.Errorf("translation identity broken: %.1e of max|α| %.3f", worst/scale, scale)
	}
}

// TestGridAlphaDerivativesRefuseDegenerateLevels: methane's t2 levels are
// degenerate, so SplitLevels routes it to the displacement loop and
// GridAlphaDerivatives refuses it rather than divide by a zero level spacing;
// water's levels are split.
func TestGridAlphaDerivativesRefuseDegenerateLevels(t *testing.T) {
	m, res := methaneModel(t)
	if SplitLevels(res) {
		t.Fatalf("methane's levels %v read as split", res.Eps)
	}
	_, nr, err := Responses(m, res, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GridAlphaDerivatives(m, res, nr, coarseGridOptions()); err == nil {
		t.Error("GridAlphaDerivatives accepted methane's degenerate levels")
	}
	if _, res := waterModel(t); !SplitLevels(res) {
		t.Errorf("water's levels %v read as degenerate", res.Eps)
	}
}
