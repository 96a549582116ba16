package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecArithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if got := x.Cross(y); got != (Vec3{0, 0, 1}) {
		t.Fatalf("x×y = %v", got)
	}
	// Anticommutativity.
	if got := y.Cross(x); got != (Vec3{0, 0, -1}) {
		t.Fatalf("y×x = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}.Normalize()
	if math.Abs(v.Norm()-1) > 1e-15 {
		t.Fatalf("normalized norm = %v", v.Norm())
	}
	z := Vec3{}.Normalize()
	if z != (Vec3{}) {
		t.Fatal("normalizing zero vector changed it")
	}
}

func TestRotateAbout(t *testing.T) {
	p := Vec3{1, 0, 0}
	got := RotateAbout(p, Vec3{}, Vec3{0, 0, 1}, math.Pi/2)
	want := Vec3{0, 1, 0}
	if got.Dist(want) > 1e-14 {
		t.Fatalf("RotateAbout = %v want %v", got, want)
	}
	// Rotation preserves distance to axis point.
	q := RotateAbout(Vec3{2, 3, 4}, Vec3{1, 1, 1}, Vec3{1, 2, -1}, 0.7)
	d0 := Vec3{2, 3, 4}.Dist(Vec3{1, 1, 1})
	if math.Abs(q.Dist(Vec3{1, 1, 1})-d0) > 1e-12 {
		t.Fatal("rotation changed distance to the origin point")
	}
}

// bruteForcePairs is the O(N²) reference.
func bruteForcePairs(points []Vec3, cutoff float64) map[[2]int]bool {
	out := map[[2]int]bool{}
	r2 := cutoff * cutoff
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if points[i].Dist2(points[j]) <= r2 {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func TestCellListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(300)
		points := make([]Vec3, n)
		for i := range points {
			points[i] = Vec3{rng.Float64() * 20, rng.Float64() * 15, rng.Float64() * 25}
		}
		cutoff := 2.0 + rng.Float64()*3
		want := bruteForcePairs(points, cutoff)
		got := map[[2]int]bool{}
		NewCellList(points, cutoff).ForEachPair(func(i, j int, d2 float64) {
			if got[[2]int{i, j}] {
				t.Fatalf("pair (%d,%d) emitted twice", i, j)
			}
			got[[2]int{i, j}] = true
			if d := points[i].Dist2(points[j]); math.Abs(d-d2) > 1e-12 {
				t.Fatalf("pair (%d,%d) wrong d2", i, j)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: cell list found %d pairs, brute force %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing pair %v", trial, k)
			}
		}
	}
}

func TestCellListNeighbors(t *testing.T) {
	points := []Vec3{{0, 0, 0}, {1, 0, 0}, {5, 0, 0}, {0.5, 0.5, 0}}
	cl := NewCellList(points, 1.5)
	nbrs := cl.Neighbors(points[0], 0)
	found := map[int]bool{}
	for _, i := range nbrs {
		found[i] = true
	}
	if !found[1] || !found[3] || found[2] || found[0] {
		t.Fatalf("Neighbors = %v", nbrs)
	}
}

func TestCellListEmptyAndSingle(t *testing.T) {
	cl := NewCellList(nil, 1)
	count := 0
	cl.ForEachPair(func(i, j int, d2 float64) { count++ })
	if count != 0 {
		t.Fatal("empty cell list emitted pairs")
	}
	cl = NewCellList([]Vec3{{1, 2, 3}}, 1)
	cl.ForEachPair(func(i, j int, d2 float64) { count++ })
	if count != 0 {
		t.Fatal("single-point cell list emitted pairs")
	}
}

// Property: rotation about any axis preserves vector norms.
func TestRotationIsometryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		axis := Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		if axis.Norm() == 0 {
			return true
		}
		theta := r.Float64() * 2 * math.Pi
		q := RotateAbout(p, Vec3{}, axis, theta)
		return math.Abs(q.Norm()-p.Norm()) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cell-list pair count is invariant under rigid translation.
func TestCellListTranslationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		points := make([]Vec3, n)
		for i := range points {
			points[i] = Vec3{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
		}
		shift := Vec3{r.NormFloat64() * 100, r.NormFloat64() * 100, r.NormFloat64() * 100}
		shifted := make([]Vec3, n)
		for i, p := range points {
			shifted[i] = p.Add(shift)
		}
		count := func(ps []Vec3) int {
			c := 0
			NewCellList(ps, 2.5).ForEachPair(func(i, j int, d2 float64) { c++ })
			return c
		}
		return count(points) == count(shifted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
