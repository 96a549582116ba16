package poisson

import (
	"fmt"
	"math"
	"testing"

	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/par"
)

// TestSolveTransposeIsExactTranspose: on every shape of the ladder
// ⟨a, G·b⟩ = ⟨Gᵀ·a, b⟩ to 1e-12 of the terms' scale for seeded a and b, while
// G itself is not symmetric (⟨a, G·b⟩ ≠ ⟨G·a, b⟩: the boundary expansion),
// so the check cannot pass by Solve standing in for its transpose.
func TestSolveTransposeIsExactTranspose(t *testing.T) {
	for _, sh := range shapeLadder {
		t.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(t *testing.T) {
			g := &grid.Grid{Origin: geom.V(-1.5, 0.25, 2), H: 0.45, Nx: sh[0], Ny: sh[1], Nz: sh[2]}
			a, b := randomDensity(g, 11), randomDensity(g, 12)
			p, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumPoints()
			gb, ga, gta := make([]float64, n), make([]float64, n), make([]float64, n)
			if err := p.Solve(b, gb); err != nil {
				t.Fatal(err)
			}
			if err := p.Solve(a, ga); err != nil {
				t.Fatal(err)
			}
			if err := p.SolveTranspose(a, gta); err != nil {
				t.Fatal(err)
			}
			var lhs, rhs, sym, scale float64
			for i := range a {
				lhs += a[i] * gb[i]
				rhs += gta[i] * b[i]
				sym += ga[i] * b[i]
				scale += math.Abs(a[i]*gb[i]) + math.Abs(gta[i]*b[i])
			}
			if d := math.Abs(lhs - rhs); d > 1e-12*scale {
				t.Errorf("⟨a,Gb⟩ = %.15g, ⟨Gᵀa,b⟩ = %.15g: off by %.1e of scale %.3g", lhs, rhs, d, scale)
			}
			if d := math.Abs(lhs - sym); d < 1e-6*scale {
				t.Errorf("⟨a,Gb⟩ and ⟨Ga,b⟩ agree to %.1e: the shape does not tell G from Gᵀ", d/scale)
			}
		})
	}
}

// TestSolveTransposeWidthInvariance: the transpose is bit-identical at kernel
// widths 1 and 4, on a grid where every transform region splits.
func TestSolveTransposeWidthInvariance(t *testing.T) {
	defer par.SetBudget(0)
	g := grid.Cover([]geom.Vec3{{}}, 8.0, 0.45)
	a := randomDensity(g, 5)
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if par.Chunks(p.az.m, p.planeChunk) < 2 || par.Chunks(p.ax.m*p.ay.m, p.colChunk) < 2 {
		t.Fatal("the transforms run as one chunk: the test would be vacuous")
	}
	var ref []float64
	for _, w := range []int{1, 4} {
		par.SetBudget(w)
		out := make([]float64, g.NumPoints())
		if err := p.SolveTranspose(a, out); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("width %d: Gᵀa[%d] drifts (%g vs %g)", w, i, out[i], ref[i])
			}
		}
	}
}
