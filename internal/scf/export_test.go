package scf

import (
	"math"
	"testing"

	"qframan/internal/linalg"
)

// The Newton-loop tests live in package scf_test so that they can take the
// displaced solves' options from hessian.SolveReference, which imports this
// package; these are the internals they compare the loop with.
var (
	RefChordMatrix  = refChordMatrix
	WaterGeometry   = waterGeometry
	DimerGeometry   = dimerGeometry
	MethaneGeometry = methane
	GlycineGeometry = glycineGeometry
	BitEqualFloats  = bitEqualFloats
	MaxAbsDiff      = maxAbsDiff

	DenseNuclearHessian  = denseNuclearHessian
	DenseOrbitalResponse = denseOrbitalResponse
)

// FixedPointResidual evaluates the charge map once at dq and returns
// max|F(dq) − dq|.
func FixedPointResidual(t testing.TB, m *Model, opt Options, dq []float64) float64 {
	t.Helper()
	ws := NewWorkspace(m)
	if err := ws.prepare(m, opt); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(dq))
	if _, _, err := ws.chargeMap(m, opt, dq, out); err != nil {
		t.Fatal(err)
	}
	var r float64
	for a := range dq {
		r = math.Max(r, math.Abs(out[a]-dq[a]))
	}
	return r
}

// SolvePulay is ws.Solve without the Newton steps: the Pulay mixer from the
// first iteration, the reference loop the Newton loop is held to.
func SolvePulay(ws *Workspace, m *Model, opt Options) (*Result, error) {
	return ws.solve(m, opt, false)
}

// NewtonMatrix evaluates the charge map once at dq and returns (I − χ·Γ)⁻¹
// for the static χ of the eigenpairs it produced: the inverse of the matrix
// the Newton step at dq eliminates, N unit columns in one elimination.
func NewtonMatrix(t testing.TB, m *Model, opt Options, dq []float64) *linalg.Matrix {
	t.Helper()
	ws := NewWorkspace(m)
	if err := ws.prepare(m, opt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ws.chargeMap(m, opt, dq, ws.newDq); err != nil {
		t.Fatal(err)
	}
	ws.chi.Seat(m, ws.c, ws.eps, ws.occ, opt.Smearing)
	ws.chi.Build(true)
	inv := linalg.Identity(ws.na)
	if err := linalg.SolveLinearColumnsInPlace(ws.chi.Sys, inv); err != nil {
		t.Fatal(err)
	}
	return inv
}
