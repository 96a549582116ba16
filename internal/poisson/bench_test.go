package poisson

import (
	"fmt"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/poisson/cgref"
)

// BenchmarkSolve pairs the direct solver with the CG reference at the
// tolerance the DFPT cycle used to ask for (1e-7), on the grid-2w benchmark
// water's grid and on two production-resolution shapes, so "dense sine
// transforms beat CG at every size we run" stays a measured claim. plan
// times the steady-state Plan.Solve (the DFPT loop); plan+setup adds
// NewPlan (a one-off poisson.Solve). cgref is serial: compare at -cpu 1.
func BenchmarkSolve(b *testing.B) {
	for _, sh := range [][3]int{{12, 14, 14}, {26, 28, 28}, {46, 46, 48}} {
		g := &grid.Grid{H: 0.4, Nx: sh[0], Ny: sh[1], Nz: sh[2]}
		c := g.PointAt(sh[0]/2, sh[1]/2, sh[2]/2)
		// Net-neutral pair of Gaussians: the shape of a response density.
		rho := gaussianCharge(g, c.Add(geom.V(0.8, 0, 0)), 1, 1)
		for i, r := range gaussianCharge(g, c.Sub(geom.V(0.8, 0, 0)), -1, 1) {
			rho[i] += r
		}
		perPoint := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.NumPoints()), "ns/point")
		}
		name := fmt.Sprintf("%dpts", g.NumPoints())
		b.Run("plan/"+name, func(b *testing.B) {
			p, err := NewPlan(g)
			if err != nil {
				b.Fatal(err)
			}
			v := make([]float64, g.NumPoints())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Solve(rho, v); err != nil {
					b.Fatal(err)
				}
			}
			perPoint(b)
		})
		b.Run("plan+setup/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(g, rho, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			perPoint(b)
		})
		b.Run("cgref/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := cgref.Solve(g, rho, 1e-7, 20000); err != nil {
					b.Fatal(err)
				}
			}
			perPoint(b)
		})
	}
}
