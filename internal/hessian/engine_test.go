package hessian

import (
	"math"
	"sync"
	"testing"

	"qframan/internal/constants"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/par"
	"qframan/internal/scf"
)

// distortedWater is water monomer k of a family of one shape: its O–H bonds
// and angle move with k. With hFirst the atoms are ordered H, O, H — the
// same shape (6 functions, 3 atoms) with another function layout.
func distortedWater(k int, hFirst bool) *fragment.Fragment {
	r1, r2 := 0.9572+0.004*float64(k%5), 0.9572-0.003*float64(k%3)
	theta := (104.52 + 0.7*float64(k%7)) * math.Pi / 180
	o, h1, h2 := geom.Vec3{}, geom.V(r1, 0, 0), geom.V(r2*math.Cos(theta), r2*math.Sin(theta), 0.01*float64(k%2))
	f := &fragment.Fragment{
		ID:  k,
		Els: []constants.Element{constants.O, constants.H, constants.H},
		Pos: []geom.Vec3{o, h1, h2}, GlobalIdx: []int{0, 1, 2}, NumReal: 3, Coeff: 1,
	}
	if hFirst {
		f.Els = []constants.Element{constants.H, constants.O, constants.H}
		f.Pos = []geom.Vec3{h1, o, h2}
	}
	return f
}

// resultBits is every float of a fragment's data and reference SCF, and the
// reference's iteration count, as bits.
func resultBits(fd *FragmentData, ref *scf.Result) []uint64 {
	var out []uint64
	add := func(xs ...float64) {
		for _, x := range xs {
			out = append(out, math.Float64bits(x))
		}
	}
	add(fd.Hess.Data...)
	for c := range fd.DAlpha {
		add(fd.DAlpha[c]...)
	}
	for k := range fd.DDipole {
		add(fd.DDipole[k]...)
	}
	add(ref.Eps...)
	add(ref.Occ...)
	add(ref.DeltaQ...)
	add(ref.C.Data...)
	add(ref.P.Data...)
	add(ref.W.Data...)
	add(ref.Energy, ref.EBand, ref.ECoul, ref.ERep, ref.EEntropy, ref.Mu, ref.Sigma, ref.Gap)
	return append(out, uint64(ref.Iterations))
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustCompute(t testing.TB, f *fragment.Fragment) (*FragmentData, *scf.Result) {
	t.Helper()
	data, ref, err := ComputeFragment(f, DefaultJobOptions())
	if err != nil {
		t.Fatal(err)
	}
	return data, ref
}

// TestComputeFragmentAllocationCeiling: a fragment's engine — the SCF and
// DFPT workspaces and the analytic route's scratch — comes from the pool of
// its shape, so after one warm-up call a water monomer's call allocates its
// model, its result and a few closures: ≤ 50 objects beyond the result
// (418 when every call built every buffer). The result is six objects: the
// FragmentData, its Hessian's header and data, the one slice its nine
// derivative vectors share, and the reference's two (scf.Result.Clone).
func TestComputeFragmentAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	defer par.SetBudget(0)
	par.SetBudget(1)
	const resultAllocs, ceiling = 6, 50
	for _, fx := range []struct {
		name string
		frag *fragment.Fragment
	}{{"water", waterFragment()}, {"dimer", dimerFragment()}, {"glycine", glycineFragment(t)}} {
		mustCompute(t, fx.frag)
		allocs := testing.AllocsPerRun(10, func() { mustCompute(t, fx.frag) })
		t.Logf("%s: %.0f allocations per call, %.0f beyond the result", fx.name, allocs, allocs-resultAllocs)
		if fx.name == "water" && allocs-resultAllocs > ceiling {
			t.Errorf("water: a call allocates %.0f objects beyond its result, want ≤ %d", allocs-resultAllocs, ceiling)
		}
	}
}

// TestComputeFragmentResultsOwnTheirStorage: nothing ComputeFragment returns
// points into the pooled engine, so a result keeps its bits while the same
// goroutine computes three more fragments of its shape — one with another
// function layout — and one of another shape.
func TestComputeFragmentResultsOwnTheirStorage(t *testing.T) {
	data, ref := mustCompute(t, distortedWater(0, false))
	want := resultBits(data, ref)
	for _, f := range []*fragment.Fragment{
		distortedWater(1, false), distortedWater(2, true), distortedWater(3, false), dimerFragment(),
	} {
		mustCompute(t, f)
	}
	if !equalBits(resultBits(data, ref), want) {
		t.Fatal("a returned FragmentData or reference changed bits after later calls")
	}
}

// TestUsedEngineMatchesFreshBitwise: every buffer the engine keeps is
// rewritten or cleared before it is read, so a fragment computed in an engine
// that last served another fragment of its shape — another geometry, or
// another function layout — equals the one computed in a fresh engine, bit
// for bit.
func TestUsedEngineMatchesFreshBitwise(t *testing.T) {
	opt := DefaultJobOptions()
	for _, prev := range []*fragment.Fragment{distortedWater(5, false), distortedWater(6, true)} {
		for _, f := range []*fragment.Fragment{distortedWater(7, false), distortedWater(8, true)} {
			used := new(engine)
			if _, _, err := used.compute(prev, opt); err != nil {
				t.Fatal(err)
			}
			data, ref, err := used.compute(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := resultBits(data, ref)
			data, ref, err = new(engine).compute(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(got, resultBits(data, ref)) {
				t.Errorf("fragment %d after %d: a used engine moved bits", f.ID, prev.ID)
			}
		}
	}
}

// TestConcurrentEnginesMatchSerial: 4 goroutines computing 16 same-shape
// fragments each, through the shared pool, reproduce the serial results.
func TestConcurrentEnginesMatchSerial(t *testing.T) {
	const goroutines, frags = 4, 16
	want := make([][]uint64, frags)
	for k := range want {
		want[k] = resultBits(mustCompute(t, distortedWater(k, k%4 == 3)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*frags)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frags; i++ {
				k := (i + 5*g) % frags
				data, ref, err := ComputeFragment(distortedWater(k, k%4 == 3), DefaultJobOptions())
				if err != nil {
					errs <- err.Error()
					continue
				}
				if !equalBits(resultBits(data, ref), want[k]) {
					errs <- "goroutine result differs from the serial one"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
