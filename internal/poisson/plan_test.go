package poisson

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/geom"
	"qframan/internal/grid"
	"qframan/internal/par"
	"qframan/internal/poisson/cgref"
)

// shapeLadder spans one interior point, prime and unequal axes, and the
// 12×14×14 grid of the grid-2w benchmark waters.
var shapeLadder = [][3]int{{3, 3, 3}, {3, 4, 9}, {5, 7, 11}, {12, 14, 14}, {31, 17, 23}}

// randomDensity is a seeded density with no symmetry: nothing about the
// transforms can cancel by accident.
func randomDensity(g *grid.Grid, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rho := make([]float64, g.NumPoints())
	for i := range rho {
		rho[i] = rng.NormFloat64()
	}
	return rho
}

// TestDirectMatchesCGReference: on every shape of the ladder the direct
// solve agrees with the CG reference run to 1e-12, and satisfies the
// discrete equation to rounding.
func TestDirectMatchesCGReference(t *testing.T) {
	for _, sh := range shapeLadder {
		t.Run(fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2]), func(t *testing.T) {
			g := &grid.Grid{Origin: geom.V(-1.5, 0.25, 2), H: 0.45, Nx: sh[0], Ny: sh[1], Nz: sh[2]}
			rho := randomDensity(g, int64(g.NumPoints()))
			p, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			v := make([]float64, g.NumPoints())
			if err := p.Solve(rho, v); err != nil {
				t.Fatal(err)
			}
			want, _, err := cgref.Solve(g, rho, 1e-12, 100000)
			if err != nil {
				t.Fatal(err)
			}
			var diff2, norm2 float64
			for i := range v {
				diff2 += (v[i] - want[i]) * (v[i] - want[i])
				norm2 += want[i] * want[i]
			}
			if rel := math.Sqrt(diff2 / norm2); rel > 1e-9 {
				t.Errorf("direct vs CG reference: relative difference %g", rel)
			}
			if r := stencilResidual(g, rho, v); r > 1e-12 {
				t.Errorf("relative discrete residual %g", r)
			}
		})
	}
}

// TestPlanReuse: a plan carries no state from one solve to the next.
func TestPlanReuse(t *testing.T) {
	g := &grid.Grid{H: 0.5, Nx: 9, Ny: 8, Nz: 7}
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	rhoA, rhoB := randomDensity(g, 1), randomDensity(g, 2)
	first := make([]float64, g.NumPoints())
	again := make([]float64, g.NumPoints())
	if err := p.Solve(rhoA, first); err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(rhoB, again); err != nil {
		t.Fatal(err)
	}
	if err := p.Solve(rhoA, again); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
			t.Fatalf("potential[%d] changed after an intervening solve: %g vs %g", i, again[i], first[i])
		}
	}
}

// TestSolveAllocatesNothing: with kernels inline (no helper tokens, so par
// itself dispatches nothing) a steady-state solve must not allocate.
func TestSolveAllocatesNothing(t *testing.T) {
	defer par.SetBudget(0)
	par.SetBudget(1)
	g := grid.Cover([]geom.Vec3{{}}, 8.0, 0.6)
	rho := gaussianCharge(g, geom.Vec3{}, 1.0, 1.0)
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, g.NumPoints())
	allocs := testing.AllocsPerRun(10, func() {
		if err := p.Solve(rho, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Plan.Solve allocates %v objects per call", allocs)
	}
}

// TestNonFiniteIsTypedAndPermanent: NaN or Inf anywhere in the density — at
// an interior point, or at a boundary point where only the moments see it —
// comes back as ErrNonFinite, which the runtime must not retry.
func TestNonFiniteIsTypedAndPermanent(t *testing.T) {
	g := &grid.Grid{H: 0.5, Nx: 8, Ny: 9, Nz: 10}
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, g.NumPoints())
	inside, onFace := g.Index(4, 4, 4), g.Index(0, 3, 3)
	for _, tc := range []struct {
		name string
		bad  float64
		at   int
	}{
		{"NaN inside", math.NaN(), inside},
		{"Inf inside", math.Inf(1), inside},
		{"overflowing 4πρ", math.MaxFloat64, inside},
		{"NaN on a face", math.NaN(), onFace},
		{"Inf on a face", math.Inf(-1), onFace},
	} {
		rho := randomDensity(g, 3)
		rho[tc.at] = tc.bad
		err := p.Solve(rho, v)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: got %v, want ErrNonFinite", tc.name, err)
		}
		if faults.Classify(err) != faults.Deterministic {
			t.Fatalf("%s: %v classified as retryable", tc.name, err)
		}
	}
	// The plan is still usable afterwards.
	if err := p.Solve(randomDensity(g, 3), v); err != nil {
		t.Fatal(err)
	}
}
