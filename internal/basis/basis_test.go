package basis

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/linalg"
)

// numericIntegral3D integrates fn over a cube centered between the two
// function centers, wide enough to capture both supports.
func numericIntegral3D(f, g *Func, fn func(p geom.Vec3) float64) float64 {
	lo := geom.V(
		math.Min(f.Center.X, g.Center.X)-8,
		math.Min(f.Center.Y, g.Center.Y)-8,
		math.Min(f.Center.Z, g.Center.Z)-8,
	)
	hi := geom.V(
		math.Max(f.Center.X, g.Center.X)+8,
		math.Max(f.Center.Y, g.Center.Y)+8,
		math.Max(f.Center.Z, g.Center.Z)+8,
	)
	const n = 60
	hx := (hi.X - lo.X) / n
	hy := (hi.Y - lo.Y) / n
	hz := (hi.Z - lo.Z) / n
	var sum float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				p := geom.V(lo.X+(float64(i)+0.5)*hx, lo.Y+(float64(j)+0.5)*hy, lo.Z+(float64(k)+0.5)*hz)
				sum += fn(p)
			}
		}
	}
	return sum * hx * hy * hz
}

func testPairs() []([2]Func) {
	a := newFunc(0, [3]int{0, 0, 0}, 0.5, geom.V(0, 0, 0), -0.5)
	px := newFunc(0, [3]int{1, 0, 0}, 0.5, geom.V(0, 0, 0), -0.2)
	b := newFunc(1, [3]int{0, 0, 0}, 0.4, geom.V(1.7, 0.4, -0.3), -0.3)
	py := newFunc(1, [3]int{0, 1, 0}, 0.6, geom.V(1.7, 0.4, -0.3), -0.2)
	pz := newFunc(1, [3]int{0, 0, 1}, 0.45, geom.V(-0.8, 1.1, 0.9), -0.2)
	return [][2]Func{
		{a, a}, {a, b}, {a, px}, {px, b}, {px, py}, {py, pz}, {a, pz}, {px, px},
	}
}

func TestNormalization(t *testing.T) {
	for _, l := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		f := newFunc(0, l, 0.7, geom.V(0.3, -0.2, 0.5), -0.4)
		if s := Overlap(&f, &f); math.Abs(s-1) > 1e-12 {
			t.Errorf("L=%v: <f|f> = %v, want 1", l, s)
		}
	}
}

func TestOverlapMatchesNumeric(t *testing.T) {
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		want := numericIntegral3D(&f, &g, func(p geom.Vec3) float64 {
			return f.ValueAt(p) * g.ValueAt(p)
		})
		got := Overlap(&f, &g)
		if math.Abs(got-want) > 2e-4 {
			t.Errorf("pair %d: overlap analytic %v vs numeric %v", idx, got, want)
		}
	}
}

func TestOverlapSymmetry(t *testing.T) {
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		if d := math.Abs(Overlap(&f, &g) - Overlap(&g, &f)); d > 1e-14 {
			t.Errorf("pair %d: overlap asymmetry %g", idx, d)
		}
	}
}

func TestDipoleMatchesNumeric(t *testing.T) {
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		got := Dipole(&f, &g)
		for ax, sel := range []func(geom.Vec3) float64{
			func(p geom.Vec3) float64 { return p.X },
			func(p geom.Vec3) float64 { return p.Y },
			func(p geom.Vec3) float64 { return p.Z },
		} {
			want := numericIntegral3D(&f, &g, func(p geom.Vec3) float64 {
				return f.ValueAt(p) * sel(p) * g.ValueAt(p)
			})
			gotAx := [3]float64{got.X, got.Y, got.Z}[ax]
			if math.Abs(gotAx-want) > 5e-4 {
				t.Errorf("pair %d axis %d: dipole analytic %v vs numeric %v", idx, ax, gotAx, want)
			}
		}
	}
}

func TestOverlapDerivMatchesFiniteDifference(t *testing.T) {
	const h = 1e-5
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		got := OverlapDeriv(&f, &g)
		var want [3]float64
		for ax := 0; ax < 3; ax++ {
			fp, fm := f, f
			switch ax {
			case 0:
				fp.Center.X += h
				fm.Center.X -= h
			case 1:
				fp.Center.Y += h
				fm.Center.Y -= h
			case 2:
				fp.Center.Z += h
				fm.Center.Z -= h
			}
			want[ax] = (Overlap(&fp, &g) - Overlap(&fm, &g)) / (2 * h)
		}
		gotArr := [3]float64{got.X, got.Y, got.Z}
		for ax := 0; ax < 3; ax++ {
			if math.Abs(gotArr[ax]-want[ax]) > 1e-8 {
				t.Errorf("pair %d axis %d: dS/dA analytic %v vs FD %v", idx, ax, gotArr[ax], want[ax])
			}
		}
	}
}

// TestOverlapHessianMatchesFiniteDifference checks ∂²<f|g>/∂A_a∂A_b against
// central differences of OverlapDeriv along A_b, its symmetry, and the
// translation rules ∂²/∂B² = ∂²/∂A² and ∂²/∂A∂B = −∂²/∂A² on the swapped pair,
// and that PairTables gives every pair the same Hessian bit for bit.
func TestOverlapHessianMatchesFiniteDifference(t *testing.T) {
	const h = 1e-5
	shift := func(f Func, ax int, d float64) Func {
		c := [3]float64{f.Center.X, f.Center.Y, f.Center.Z}
		c[ax] += d
		f.Center = geom.V(c[0], c[1], c[2])
		return f
	}
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		got := OverlapHessian(&f, &g)
		if pt := PairTables(&f, &g); OverlapHessianFrom(&pt, &f, &g) != got {
			t.Errorf("pair %d: Hessian from the pair tables differs", idx)
		}
		swapped := OverlapHessian(&g, &f) // ∂²<g|f>/∂B²
		for b := 0; b < 3; b++ {
			fp, fm := shift(f, b, h), shift(f, b, -h)
			dp, dm := OverlapDeriv(&fp, &g), OverlapDeriv(&fm, &g)
			want := dp.Sub(dm).Scale(1 / (2 * h))
			for a, w := range [3]float64{want.X, want.Y, want.Z} {
				if math.Abs(got[a][b]-w) > 1e-8 {
					t.Errorf("pair %d (%d,%d): ∂²S/∂A² analytic %v vs FD %v", idx, a, b, got[a][b], w)
				}
				if got[a][b] != got[b][a] {
					t.Errorf("pair %d: Hessian not symmetric at (%d,%d)", idx, a, b)
				}
				if math.Abs(swapped[a][b]-got[a][b]) > 1e-13 {
					t.Errorf("pair %d (%d,%d): ∂²/∂B² %v ≠ ∂²/∂A² %v", idx, a, b, swapped[a][b], got[a][b])
				}
			}
			// ∂²/∂A_a∂B_b from a B-shift of the A-derivative.
			gp, gm := shift(g, b, h), shift(g, b, -h)
			dp, dm = OverlapDeriv(&f, &gp), OverlapDeriv(&f, &gm)
			mixed := dp.Sub(dm).Scale(1 / (2 * h))
			for a, w := range [3]float64{mixed.X, mixed.Y, mixed.Z} {
				if math.Abs(-got[a][b]-w) > 1e-8 {
					t.Errorf("pair %d (%d,%d): ∂²S/∂A∂B %v vs FD %v", idx, a, b, -got[a][b], w)
				}
			}
		}
	}
}

// TestDipoleDerivMatchesFiniteDifference checks d<f|r_k|g>/dA against
// central differences of Dipole, and the translation rule
// d/dA + d/dB = δ_ak·<f|g> with d/dB read from the swapped pair.
func TestDipoleDerivMatchesFiniteDifference(t *testing.T) {
	const h = 1e-5
	for idx, pr := range testPairs() {
		f, g := pr[0], pr[1]
		got := DipoleDeriv(&f, &g)
		gotB := DipoleDeriv(&g, &f) // d<g|r|f>/dB = d<f|r|g>/dB
		s := Overlap(&f, &g)
		for ax := 0; ax < 3; ax++ {
			fp, fm := f, f
			fp.Center = fp.Center.Add(unitVec(ax).Scale(h))
			fm.Center = fm.Center.Sub(unitVec(ax).Scale(h))
			want := Dipole(&fp, &g).Sub(Dipole(&fm, &g)).Scale(1 / (2 * h))
			for k, w := range [3]float64{want.X, want.Y, want.Z} {
				a := component(got[k], ax)
				if math.Abs(a-w) > 1e-8 {
					t.Errorf("pair %d: dD^%d/dA_%d analytic %v vs FD %v", idx, k, ax, a, w)
				}
				var delta float64
				if k == ax {
					delta = s
				}
				if sum := a + component(gotB[k], ax); math.Abs(sum-delta) > 1e-12 {
					t.Errorf("pair %d: dD^%d/dA_%d + dD^%d/dB_%d = %v, want %v", idx, k, ax, k, ax, sum, delta)
				}
			}
		}
	}
}

func unitVec(ax int) geom.Vec3 {
	var v [3]float64
	v[ax] = 1
	return geom.V(v[0], v[1], v[2])
}

func component(v geom.Vec3, ax int) float64 { return [3]float64{v.X, v.Y, v.Z}[ax] }

func TestGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const h = 1e-6
	for _, l := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		f := newFunc(0, l, 0.55, geom.V(0.2, -0.7, 0.4), -0.4)
		for trial := 0; trial < 5; trial++ {
			p := geom.V(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2)
			g := f.GradAt(p)
			fd := geom.V(
				(f.ValueAt(p.Add(geom.V(h, 0, 0)))-f.ValueAt(p.Sub(geom.V(h, 0, 0))))/(2*h),
				(f.ValueAt(p.Add(geom.V(0, h, 0)))-f.ValueAt(p.Sub(geom.V(0, h, 0))))/(2*h),
				(f.ValueAt(p.Add(geom.V(0, 0, h)))-f.ValueAt(p.Sub(geom.V(0, 0, h))))/(2*h),
			)
			if g.Sub(fd).Norm() > 1e-6 {
				t.Fatalf("L=%v: grad %v vs FD %v", l, g, fd)
			}
		}
	}
}

// TestHessAtMatchesFiniteDifference: the second derivatives of s and p
// functions agree with central differences of GradAt, row by row, and are
// symmetric.
func TestHessAtMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const h = 1e-5
	for _, l := range [][3]int{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		f := newFunc(0, l, 0.55, geom.V(0.2, -0.7, 0.4), -0.4)
		for trial := 0; trial < 5; trial++ {
			p := geom.V(rng.NormFloat64()*2, rng.NormFloat64()*2, rng.NormFloat64()*2)
			hess := f.HessAt(p)
			for b := 0; b < 3; b++ {
				var e [3]float64
				e[b] = h
				step := geom.V(e[0], e[1], e[2])
				gp, gm := f.GradAt(p.Add(step)), f.GradAt(p.Sub(step))
				fd := [3]float64{(gp.X - gm.X) / (2 * h), (gp.Y - gm.Y) / (2 * h), (gp.Z - gm.Z) / (2 * h)}
				for a := 0; a < 3; a++ {
					if d := math.Abs(hess[a][b] - fd[a]); d > 1e-8 {
						t.Fatalf("L=%v at %v: ∂²χ/∂%d∂%d = %.12g, central difference %.12g", l, p, a, b, hess[a][b], fd[a])
					}
					if hess[a][b] != hess[b][a] {
						t.Fatalf("L=%v: Hessian not symmetric at (%d,%d)", l, a, b)
					}
				}
			}
		}
	}
}

func TestForAtoms(t *testing.T) {
	els := []constants.Element{constants.O, constants.H, constants.H}
	pos := []geom.Vec3{{}, geom.V(1.8, 0, 0), geom.V(-0.45, 1.75, 0)}
	set := ForAtoms(els, pos)
	if set.Size() != 6 {
		t.Fatalf("water basis size = %d, want 6", set.Size())
	}
	if set.NumElectrons != 8 {
		t.Fatalf("water electrons = %d, want 8", set.NumElectrons)
	}
	if set.FirstOfAtom[0] != 0 || set.FirstOfAtom[1] != 4 || set.FirstOfAtom[2] != 5 {
		t.Fatalf("FirstOfAtom = %v", set.FirstOfAtom)
	}
	s := set.OverlapMatrix()
	if !s.IsSymmetric(1e-14) {
		t.Fatal("overlap matrix not symmetric")
	}
	for i := 0; i < s.Rows; i++ {
		if math.Abs(s.At(i, i)-1) > 1e-12 {
			t.Fatalf("S[%d][%d] = %v", i, i, s.At(i, i))
		}
	}
	// S must be positive definite.
	vals, _ := linalg.EigSym(s)
	for _, v := range vals {
		if v <= 0 {
			t.Fatalf("overlap matrix has non-positive eigenvalue %v", v)
		}
	}
}

func TestSupportRadius(t *testing.T) {
	f := newFunc(0, [3]int{0, 0, 0}, 0.5, geom.Vec3{}, -0.4)
	r := f.SupportRadius()
	peak := f.ValueAt(geom.Vec3{})
	edge := f.ValueAt(geom.V(r, 0, 0))
	if math.Abs(edge/peak) > 1e-7 {
		t.Fatalf("function not negligible at support radius: ratio %g", edge/peak)
	}
}

func TestDipoleMatrices(t *testing.T) {
	els := []constants.Element{constants.O, constants.H}
	pos := []geom.Vec3{{}, geom.V(1.8, 0, 0)}
	set := ForAtoms(els, pos)
	ds := set.DipoleMatrices()
	for k := 0; k < 3; k++ {
		if !ds[k].IsSymmetric(1e-14) {
			t.Fatalf("dipole matrix %d not symmetric", k)
		}
	}
	// <s_O| x |s_O> = O's x coordinate (0); <s_H| x |s_H> = 1.8.
	if math.Abs(ds[0].At(0, 0)) > 1e-12 {
		t.Fatalf("O on-site x dipole = %v", ds[0].At(0, 0))
	}
	if math.Abs(ds[0].At(4, 4)-1.8) > 1e-12 {
		t.Fatalf("H on-site x dipole = %v", ds[0].At(4, 4))
	}
}
