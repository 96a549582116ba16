package store

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qframan/internal/hessian"
	"qframan/internal/linalg"
)

// rotateOracle is the contraction form rotateData replaced, kept as its
// reference: every 3×3 Hessian block as (R·B)·Rᵀ on its own, the dipole
// derivatives as a double sum over both indices, and the polarizability
// derivatives as a triple sum over all three — R applied index by index,
// with no symmetry used or kept.
func rotateOracle(fd *hessian.FragmentData, R [3][3]float64) *hessian.FragmentData {
	natoms := fd.NumAtoms()
	out := &hessian.FragmentData{Hess: linalg.NewMatrix(3*natoms, 3*natoms)}
	var blk, tmp [3][3]float64
	for a := 0; a < natoms; a++ {
		for b := 0; b < natoms; b++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					blk[i][j] = fd.Hess.At(3*a+i, 3*b+j)
				}
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					tmp[i][j] = R[i][0]*blk[0][j] + R[i][1]*blk[1][j] + R[i][2]*blk[2][j]
				}
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					out.Hess.Set(3*a+i, 3*b+j, tmp[i][0]*R[j][0]+tmp[i][1]*R[j][1]+tmp[i][2]*R[j][2])
				}
			}
		}
	}
	for k := range out.DDipole {
		out.DDipole[k] = make([]float64, 3*natoms)
	}
	for c := range out.DAlpha {
		out.DAlpha[c] = make([]float64, 3*natoms)
	}
	for a := 0; a < natoms; a++ {
		for k := 0; k < 3; k++ {
			for d := 0; d < 3; d++ {
				var s float64
				for kk := 0; kk < 3; kk++ {
					for dd := 0; dd < 3; dd++ {
						s += R[k][kk] * R[d][dd] * fd.DDipole[kk][3*a+dd]
					}
				}
				out.DDipole[k][3*a+d] = s
			}
		}
		var G [3][3][3]float64 // G[i][j][d] = ∂α_ij/∂x_{a,d}
		for c, ij := range hessian.AlphaComponents {
			for d := 0; d < 3; d++ {
				G[ij[0]][ij[1]][d] = fd.DAlpha[c][3*a+d]
				G[ij[1]][ij[0]][d] = fd.DAlpha[c][3*a+d]
			}
		}
		for c, ij := range hessian.AlphaComponents {
			for d := 0; d < 3; d++ {
				var s float64
				for ii := 0; ii < 3; ii++ {
					for jj := 0; jj < 3; jj++ {
						for dd := 0; dd < 3; dd++ {
							s += R[ij[0]][ii] * R[ij[1]][jj] * R[d][dd] * G[ii][jj][dd]
						}
					}
				}
				out.DAlpha[c][3*a+d] = s
			}
		}
	}
	return out
}

// randomRotation is a proper rotation (det +1) from a random unit
// quaternion.
func randomRotation(rng *rand.Rand) [3][3]float64 {
	w, x, y, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	n := math.Sqrt(w*w + x*x + y*y + z*z)
	w, x, y, z = w/n, x/n, y/n, z/n
	return [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// maxRelDiff is max|a − b| over max|b|: agreement relative to the tensor's
// scale, which a cancelling entry's own magnitude does not set.
func maxRelDiff(a, b []float64) float64 {
	var d, scale float64
	for i := range b {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	return d / scale
}

// TestRotateDataMatchesContractionOracle: the one-conjugation rotation agrees
// with the index-by-index contractions to 1e-13 relative on every tensor, for
// 1–8 atoms under random proper rotations, and its Hessian is symmetric bit
// for bit.
func TestRotateDataMatchesContractionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	var overall float64
	for natoms := 1; natoms <= 8; natoms++ {
		for trial := 0; trial < 4; trial++ {
			fd := randomData(natoms, rng.Int63())
			R := randomRotation(rng)
			got, err := rotateData(fd, R)
			if err != nil {
				t.Fatal(err)
			}
			want := rotateOracle(fd, R)
			if err := got.CheckSymmetric(); err != nil {
				t.Fatalf("%d atoms: %v", natoms, err)
			}
			worst := maxRelDiff(got.Hess.Data, want.Hess.Data)
			for c := range want.DAlpha {
				worst = math.Max(worst, maxRelDiff(got.DAlpha[c], want.DAlpha[c]))
			}
			for k := range want.DDipole {
				worst = math.Max(worst, maxRelDiff(got.DDipole[k], want.DDipole[k]))
			}
			if worst > 1e-13 {
				t.Fatalf("%d atoms, trial %d: rotation departs from the oracle by %.3g relative", natoms, trial, worst)
			}
			overall = math.Max(overall, worst)
		}
	}
	t.Logf("largest departure from the oracle: %.3g relative", overall)
}

// TestFrameRotationRoundtrip: ToCanonical∘FromCanonical must reproduce the
// input to rounding error for a genuinely rotating frame.
func TestFrameRotationRoundtrip(t *testing.T) {
	f := waterFragment()
	_, fr := Fingerprint(f, hessian.DefaultJobOptions())
	if !fr.Rotate {
		t.Fatal("expected rotating frame")
	}
	fd := randomData(3, 11)
	canon, err := fr.ToCanonical(fd)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fr.FromCanonical(canon)
	if err != nil {
		t.Fatal(err)
	}
	checkClose := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-12*(1+math.Abs(b)) {
			t.Fatalf("%s: %v != %v after rotation roundtrip", name, a, b)
		}
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			checkClose("Hess", back.Hess.At(i, j), fd.Hess.At(i, j))
		}
	}
	for c := range fd.DAlpha {
		for i := range fd.DAlpha[c] {
			checkClose("DAlpha", back.DAlpha[c][i], fd.DAlpha[c][i])
		}
	}
	for k := range fd.DDipole {
		for i := range fd.DDipole[k] {
			checkClose("DDipole", back.DDipole[k][i], fd.DDipole[k][i])
		}
	}
}

// TestFrameRejectsMisshapenData: rotating data whose blocks disagree on the
// atom count would corrupt it silently; it must error instead.
func TestFrameRejectsMisshapenData(t *testing.T) {
	f := waterFragment()
	_, fr := Fingerprint(f, hessian.DefaultJobOptions())
	bad := randomData(3, 12)
	bad.DAlpha[0] = bad.DAlpha[0][:6] // 2 atoms' worth against a 3-atom Hessian
	if _, err := fr.ToCanonical(bad); err == nil {
		t.Fatal("mismatched block dimensions accepted for rotation")
	}
	notSquare := &hessian.FragmentData{Hess: linalg.NewMatrix(5, 6)}
	if _, err := fr.ToCanonical(notSquare); err == nil {
		t.Fatal("non-square Hessian accepted for rotation")
	}
}

// TestFrameRejectsAsymmetricHessian: a Hessian one bit away from symmetric
// would lose its lower triangle to the upper-triangle rotation; both
// directions refuse it.
func TestFrameRejectsAsymmetricHessian(t *testing.T) {
	_, fr := Fingerprint(waterFragment(), hessian.DefaultJobOptions())
	fd := randomData(3, 13)
	fd.Hess.Set(7, 2, math.Nextafter(fd.Hess.At(7, 2), math.Inf(1)))
	if _, err := fr.ToCanonical(fd); err == nil {
		t.Fatal("asymmetric Hessian accepted by ToCanonical")
	}
	if _, err := fr.FromCanonical(fd); err == nil {
		t.Fatal("asymmetric Hessian accepted by FromCanonical")
	}
}

// BenchmarkRotate times one full record rotation (Hessian, ∂α, ∂μ) for a
// water (3 atoms) and a water pair (6 atoms), the records every member of a
// water box's classes is served through.
func BenchmarkRotate(b *testing.B) {
	for _, natoms := range []int{3, 6} {
		b.Run(fmt.Sprintf("atoms=%d", natoms), func(b *testing.B) {
			fd := randomData(natoms, 1)
			R := randomRotation(rand.New(rand.NewSource(2)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rotateData(fd, R); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
