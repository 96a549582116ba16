package dfpt

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qframan/internal/faults"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/poisson"
	"qframan/internal/poisson/cgref"
)

// TestGridAlphaMatchesCGReference: swapping the production Poisson solver
// for the CG reference (run far below the tolerance the cycle used to ask
// for) must not move the converged polarizability — the solver swap changes
// rounding, not physics.
func TestGridAlphaMatchesCGReference(t *testing.T) {
	m, res := waterModel(t)
	direct, err := Polarizability(m, res, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env, err := newGridEnv(m, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env.solveV1 = func(rho, v []float64) error {
		out, _, err := cgref.Solve(env.g, rho, 1e-12, 100000)
		copy(v, out)
		return err
	}
	ref, err := new(Workspace).polarizability(m, res, gridOptions(), env)
	if err != nil {
		t.Fatal(err)
	}
	var diff2, norm2 float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			d := direct.Alpha[i][j] - ref.Alpha[i][j]
			diff2 += d * d
			norm2 += ref.Alpha[i][j] * ref.Alpha[i][j]
		}
	}
	if rel := math.Sqrt(diff2 / norm2); rel > 1e-6 {
		t.Fatalf("|Δα|/|α| = %g between the direct solver and the CG reference", rel)
	}
	if direct.Cycles != ref.Cycles {
		t.Errorf("self-consistency took %d cycles with the direct solver, %d with the reference", direct.Cycles, ref.Cycles)
	}
}

// TestGridCycleAllocationCeiling: the grid environment owns every matrix,
// vector and batch plan of phases 2–4, BatchPlan.Run allocates nothing, and
// phase 1 and the Pulay step run from the cycle environment's buffers, so
// what a steady-state cycle — all four phases and the mixer — still allocates
// is the closures of its three par.For regions (gather, scatter, H⁽¹⁾ operand
// build; they capture the field direction): 6 objects measured over 96
// batches, independent of the batch count. The ceiling is that plus 25 %.
func TestGridCycleAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	m, res := waterModel(t)
	grid, err := newGridEnv(m, gridOptions())
	if err != nil {
		t.Fatal(err)
	}
	env := newCycleEnv(m, res, grid)
	env.mixer.Reset(0.3)
	var met PhaseMetrics
	allocs := testing.AllocsPerRun(5, func() {
		env.h1.CopyFrom(m.Dip[0])
		if err := grid.addGridResponse(env.p1, env.h1, 0, &met); err != nil {
			t.Fatal(err)
		}
		env.responseDensity()
		env.residualNorm()
		env.mixer.Next(env.p1.Data, env.newP1.Data, env.p1.Data)
	})
	if len(grid.batches) < 20 {
		t.Fatalf("only %d batches: the ceiling would not tell per-batch allocation apart", len(grid.batches))
	}
	if allocs > 8 {
		t.Fatalf("one grid cycle over %d batches allocates %v objects, ceiling 8", len(grid.batches), allocs)
	}
}

// TestGridNonFiniteResponseIsPermanent: a NaN in P⁽¹⁾ surfaces from phase 3
// as poisson.ErrNonFinite — a deterministic failure the runtime does not
// retry — instead of travelling on into H⁽¹⁾; a NaN in the ground state's
// orbitals, which phase 1 meets first, is the cycle's ErrDiverged (NaN).
func TestGridNonFiniteResponseIsPermanent(t *testing.T) {
	m, res := waterModel(t)
	opt := gridOptions()
	bad := linalg.NewMatrix(m.Basis.Size(), m.Basis.Size())
	bad.Set(0, 0, math.NaN())
	opt.InitP1 = [3]*linalg.Matrix{bad, bad, bad}
	_, err := Polarizability(m, res, opt)
	if !errors.Is(err, poisson.ErrNonFinite) {
		t.Fatalf("got %v, want poisson.ErrNonFinite", err)
	}
	if faults.Classify(err) != faults.Deterministic {
		t.Fatalf("%v classified as retryable", err)
	}
	poisoned := *res
	poisoned.C = res.C.Clone()
	poisoned.C.Set(0, 0, math.NaN())
	_, err = Polarizability(m, &poisoned, coarseGridOptions())
	if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "(NaN) at cycle 1") {
		t.Fatalf("poisoned ground state: got %v, want ErrDiverged (NaN) at cycle 1", err)
	}
	if faults.Classify(err) != faults.Deterministic {
		t.Fatalf("%v classified as retryable", err)
	}
}
