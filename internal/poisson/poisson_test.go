package poisson

import (
	"math"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/grid"
)

// gaussianCharge fills rho with a normalized Gaussian charge q·(α/π)^{3/2}
// exp(−α|r−c|²), whose exact potential is q·erf(√α·r)/r.
func gaussianCharge(g *grid.Grid, c geom.Vec3, q, alpha float64) []float64 {
	rho := make([]float64, g.NumPoints())
	n := q * math.Pow(alpha/math.Pi, 1.5)
	for i := range rho {
		rho[i] = n * math.Exp(-alpha*g.Point(i).Sub(c).Norm2())
	}
	return rho
}

func TestSolveGaussianCharge(t *testing.T) {
	center := geom.V(0, 0, 0)
	g := grid.Cover([]geom.Vec3{center}, 9.0, 0.45)
	alpha := 1.2
	rho := gaussianCharge(g, center, 1.0, alpha)
	v, _, err := Solve(g, rho, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the analytic potential at interior points not too
	// close to the center (stencil error grows with curvature).
	var worst float64
	checked := 0
	for i := range v {
		p := g.Point(i)
		r := p.Sub(center).Norm()
		if r < 1.5 || r > 6.0 {
			continue
		}
		want := math.Erf(math.Sqrt(alpha)*r) / r
		if e := math.Abs(v[i] - want); e > worst {
			worst = e
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no points checked")
	}
	if worst > 8e-3 {
		t.Fatalf("max potential error %g vs analytic", worst)
	}
}

func TestSolveDipoleDensity(t *testing.T) {
	// Two opposite Gaussian charges: net-zero density like a response
	// density; potential is the difference of the two analytic potentials.
	cp := geom.V(0.8, 0, 0)
	cm := geom.V(-0.8, 0, 0)
	g := grid.Cover([]geom.Vec3{cp, cm}, 9.0, 0.45)
	alpha := 1.0
	rho := gaussianCharge(g, cp, 1.0, alpha)
	neg := gaussianCharge(g, cm, -1.0, alpha)
	for i := range rho {
		rho[i] += neg[i]
	}
	v, _, err := Solve(g, rho, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range v {
		p := g.Point(i)
		rp := p.Sub(cp).Norm()
		rm := p.Sub(cm).Norm()
		if rp < 1.8 || rm < 1.8 || rp > 6 || rm > 6 {
			continue
		}
		want := math.Erf(math.Sqrt(alpha)*rp)/rp - math.Erf(math.Sqrt(alpha)*rm)/rm
		if e := math.Abs(v[i] - want); e > worst {
			worst = e
		}
	}
	if worst > 8e-3 {
		t.Fatalf("dipole potential max error %g", worst)
	}
}

func TestSolveZeroDensity(t *testing.T) {
	g := grid.Cover([]geom.Vec3{{}}, 4, 0.8)
	rho := make([]float64, g.NumPoints())
	v, iters, err := Solve(g, rho, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if iters != 0 {
		t.Fatalf("direct solve reported %d iterations", iters)
	}
	for i, val := range v {
		if val != 0 {
			t.Fatalf("nonzero potential %g at %d for zero density", val, i)
		}
	}
}

func TestSolveValidation(t *testing.T) {
	g := grid.Cover([]geom.Vec3{{}}, 4, 0.8)
	if _, _, err := Solve(g, make([]float64, 3), Options{}); err == nil {
		t.Fatal("accepted wrong-sized rho")
	}
	if _, err := NewPlan(&grid.Grid{H: 0.5, Nx: 2, Ny: 5, Nz: 5}); err == nil {
		t.Fatal("accepted a grid with no interior point")
	}
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(make([]float64, g.NumPoints()), make([]float64, 3)); err == nil {
		t.Fatal("accepted wrong-sized v")
	}
}

// forInterior calls f with the linear index of every interior grid point.
func forInterior(g *grid.Grid, f func(i int)) {
	for iz := 1; iz < g.Nz-1; iz++ {
		for iy := 1; iy < g.Ny-1; iy++ {
			for ix := 1; ix < g.Nx-1; ix++ {
				f(g.Index(ix, iy, iz))
			}
		}
	}
}

// stencilResidual returns ‖Au − b‖/‖b‖ of the linear system the solver
// owns: A the 7-point −∇² on the interior, b = 4πρ plus the Dirichlet
// values folded in. Au − b is −∇²v − 4πρ on the full v; b is 4πρ + ∇²
// of v's boundary part alone.
func stencilResidual(g *grid.Grid, rho, v []float64) float64 {
	lap := func(u []float64, i int) float64 {
		sx, sy, sz := 1, g.Nx, g.Nx*g.Ny
		return (u[i-sx] + u[i+sx] + u[i-sy] + u[i+sy] + u[i-sz] + u[i+sz] - 6*u[i]) / (g.H * g.H)
	}
	vb := append([]float64(nil), v...)
	forInterior(g, func(i int) { vb[i] = 0 })
	var res2, b2 float64
	forInterior(g, func(i int) {
		res := lap(v, i) + 4*math.Pi*rho[i]
		b := 4*math.Pi*rho[i] + lap(vb, i)
		res2 += res * res
		b2 += b * b
	})
	return math.Sqrt(res2 / b2)
}

func TestStencilConsistency(t *testing.T) {
	// The solution must satisfy the discrete equation at interior points to
	// rounding (the solve is direct): −∇²v = 4πρ.
	g := grid.Cover([]geom.Vec3{{}}, 6.0, 0.6)
	rho := gaussianCharge(g, geom.Vec3{}, 1.0, 1.0)
	v, _, err := Solve(g, rho, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := stencilResidual(g, rho, v); r > 1e-12 {
		t.Fatalf("relative discrete residual %g", r)
	}
}
