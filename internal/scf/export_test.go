package scf

import (
	"math"
	"testing"
)

// The chord-loop tests live in package scf_test so that they can take the
// chord matrix from hessian.SolveReference, which imports this package; these
// are the internals they compare it with.
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
