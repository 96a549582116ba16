package poisson

import (
	"math"
	"runtime"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/par"
)

// TestSolveWidthInvariance is the Poisson half of CI's kernel-drift gate:
// the potential must be bit-identical at kernel widths 1, 3 and NumCPU —
// transform chunks only partition lines, and the boundary moments combine
// their partials in fixed chunk order. The grid is large enough that every
// region really splits.
func TestSolveWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	g := grid.Cover([]geom.Vec3{{}}, 8.0, 0.45)
	rho := gaussianCharge(g, geom.Vec3{}, 1.0, 1.0)
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	for name, chunks := range map[string]int{
		"moments":   par.Chunks(g.Ny*g.Nz, p.lineChunk),
		"xy stages": par.Chunks(p.az.m, p.planeChunk),
		"z stage":   par.Chunks(p.ax.m*p.ay.m, p.colChunk),
	} {
		if chunks < 2 {
			t.Fatalf("%s run as %d chunk on %d points: the test would be vacuous", name, chunks, g.NumPoints())
		}
	}

	var ref []float64
	for _, w := range []int{1, 3, runtime.NumCPU()} {
		par.SetBudget(w)
		v := make([]float64, g.NumPoints())
		if err := p.Solve(rho, v); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if ref == nil {
			ref = v
			continue
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("width %d: potential[%d] drifts (%g vs %g)", w, i, v[i], ref[i])
			}
		}
	}
}
