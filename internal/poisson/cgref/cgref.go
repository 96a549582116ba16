// Package cgref is the test-only reference for internal/poisson: the
// unpreconditioned conjugate-gradient iteration on the 7-point Dirichlet
// Laplacian that solved the response potential before the direct
// sine-transform solver replaced it. It is serial, shares no code with the
// production package (own boundary expansion, own stencil) and is written to
// be obviously correct, the way linalg/gemmref keeps the naive GEMM — the
// direct solver must agree with it to the CG tolerance on every grid shape.
package cgref

import (
	"fmt"
	"math"

	"qframan/internal/grid"
)

// Solve returns the potential of rho on g — monopole+dipole Dirichlet
// values on the faces, CG on the interior down to relative residual tol —
// and the number of iterations taken.
func Solve(g *grid.Grid, rho []float64, tol float64, maxIter int) ([]float64, int, error) {
	n := g.NumPoints()
	if len(rho) != n {
		return nil, 0, fmt.Errorf("cgref: rho has %d entries, grid has %d points", len(rho), n)
	}
	if g.Nx < 3 || g.Ny < 3 || g.Nz < 3 {
		return nil, 0, fmt.Errorf("cgref: grid must be at least 3 points per axis")
	}
	var inner, face []int // interior and boundary point indices
	for i := 0; i < n; i++ {
		ix, iy, iz := g.Coords(i)
		if ix > 0 && ix < g.Nx-1 && iy > 0 && iy < g.Ny-1 && iz > 0 && iz < g.Nz-1 {
			inner = append(inner, i)
		} else {
			face = append(face, i)
		}
	}

	// Boundary: v = q/r + p·d/r³ about the grid centre.
	center := g.PointAt(0, 0, 0).Add(g.PointAt(g.Nx-1, g.Ny-1, g.Nz-1)).Scale(0.5)
	var q, px, py, pz float64
	for i, r := range rho {
		d := g.Point(i).Sub(center)
		rw := r * g.Weight()
		q += rw
		px += d.X * rw
		py += d.Y * rw
		pz += d.Z * rw
	}
	v := make([]float64, n)
	for _, i := range face {
		d := g.Point(i).Sub(center)
		r := d.Norm()
		v[i] = q/r + (px*d.X+py*d.Y+pz*d.Z)/(r*r*r)
	}

	// A = −∇²_h on the interior with zero boundary; b = 4πρ + the boundary
	// neighbours' values / h². Vectors live in the full layout with exact
	// zeros on the boundary.
	h2 := g.H * g.H
	strides := [3]int{1, g.Nx, g.Nx * g.Ny}
	applyA := func(u, out []float64) {
		for _, i := range inner {
			s := 6 * u[i]
			for _, st := range strides {
				s -= u[i-st] + u[i+st]
			}
			out[i] = s / h2
		}
	}
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	b := make([]float64, n)
	for _, i := range inner {
		b[i] = 4 * math.Pi * rho[i]
		for _, st := range strides {
			// Interior neighbours hold 0 in v at this point.
			b[i] += (v[i-st] + v[i+st]) / h2
		}
	}
	bNorm := math.Sqrt(dot(b, b))
	if bNorm == 0 {
		return v, 0, nil
	}

	u := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	ap := make([]float64, n)
	rr := dot(r, r)
	iter := 0
	for ; iter < maxIter && math.Sqrt(rr)/bNorm >= tol; iter++ {
		applyA(p, ap)
		pap := dot(p, ap)
		if pap <= 0 {
			return nil, iter, fmt.Errorf("cgref: breakdown (pᵀAp = %g)", pap)
		}
		alpha := rr / pap
		for i := range u {
			u[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := dot(r, r)
		beta := rrNew / rr
		rr = rrNew
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
	}
	if res := math.Sqrt(rr) / bNorm; res >= tol {
		return nil, iter, fmt.Errorf("cgref: not converged in %d iterations (rel res %g)", iter, res)
	}
	for _, i := range inner {
		v[i] = u[i]
	}
	return v, iter, nil
}
