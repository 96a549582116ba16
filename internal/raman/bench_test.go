package raman

import (
	"fmt"
	"testing"

	"qframan/internal/hessian"
)

// BenchmarkSpectralRoutes times both spectral routes from the same Raman
// start vectors on the jittered water-box ladder, at wb-resume's settings and
// at the defaults, and reports each route's estimate beside it
// (estimate-ms): the calibration of exactCheaper's unit costs
// (EXPERIMENTS.md, "The spectral route by cost"). The unit costs were set at
// kernel budget 1:
//
//	QF_KERNEL_THREADS=1 go test ./internal/raman -run '^$' -bench SpectralRoutes -benchtime 4x
func BenchmarkSpectralRoutes(b *testing.B) {
	for _, dims := range [][3]int{{3, 3, 3}, {3, 3, 4}, {3, 4, 4}, {4, 4, 4}, {4, 4, 5}} {
		g := waterBoxGlobal(b, dims[0], dims[1], dims[2])
		starts, weights := solveStarts(g, false)
		n, stored := g.H.Dim(), len(g.H.Val)
		for _, set := range []struct {
			name string
			opt  Options
		}{{"resume", resumeOptions()}, {"defaults", DefaultOptions()}} {
			exactNS, quadNS := routeCosts(n, stored, len(starts), &set.opt)
			for _, r := range []struct {
				name     string
				estimate float64
				solve    func(*hessian.Sparse, Options, [][]float64, []float64) (*Spectrum, error)
			}{{"exact", exactNS, exactSpectrum}, {"quadrature", quadNS, quadratureSpectrum}} {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, set.name, r.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := r.solve(g.H, set.opt, starts, weights); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(r.estimate/1e6, "estimate-ms")
				})
			}
		}
	}
}
