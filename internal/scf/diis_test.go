package scf

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

// refDIIS is the mixer written the allocating way: histories appended and
// re-sliced, the independent entries found by Gram–Schmidt on the explicit
// residual differences, the Gram matrix of those rebuilt from Dots and solved
// by linalg.SolveLinear, every vector allocated per step. Test-only reference
// (the gemmref/cgref pattern) that Pulay must reproduce bit for bit: the two
// take the rank decision by different arithmetic, so they agree on every
// history in which it is not a matter of the last digits.
type refDIIS struct {
	beta     float64
	max      int
	ins, res [][]float64
}

func (d *refDIIS) next(in, out []float64) []float64 {
	n := len(in)
	r := make([]float64, n)
	for i := range r {
		r[i] = out[i] - in[i]
	}
	d.ins = append(d.ins, append([]float64(nil), in...))
	d.res = append(d.res, r)
	if len(d.ins) > d.max {
		d.ins = d.ins[1:]
		d.res = d.res[1:]
	}
	k := len(d.ins)
	if k >= 2 {
		if next := d.extrapolate(k, n); next != nil {
			return next
		}
	}
	next := make([]float64, n)
	for i := range next {
		next[i] = in[i] + d.beta*r[i]
	}
	return next
}

// independent returns, oldest first, the newest entry and every older one
// whose residual difference to the newest has a component outside the span of
// the differences of the entries taken before it (newer first).
func (d *refDIIS) independent() (ins, res [][]float64) {
	k := len(d.res)
	newest := d.res[k-1]
	var span [][]float64 // orthonormal
	idx := []int{k - 1}
	for i := k - 2; i >= 0; i-- {
		v := make([]float64, len(newest))
		for a := range v {
			v[a] = d.res[i][a] - newest[a]
		}
		scale := math.Max(linalg.Dot(d.res[i], d.res[i]), linalg.Dot(newest, newest))
		for _, q := range span {
			linalg.Axpy(-linalg.Dot(q, v), q, v)
		}
		rest := linalg.Dot(v, v)
		if !(rest > pulayRankTol*scale) {
			continue
		}
		linalg.Scal(1/math.Sqrt(rest), v)
		span = append(span, v)
		idx = append([]int{i}, idx...)
	}
	for _, i := range idx {
		ins, res = append(ins, d.ins[i]), append(res, d.res[i])
	}
	return ins, res
}

func (d *refDIIS) extrapolate(_, n int) []float64 {
	ins, res := d.independent()
	k := len(res)
	b := linalg.NewMatrix(k+1, k+1)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			b.Set(i, j, linalg.Dot(res[i], res[j]))
		}
		b.Set(i, k, 1)
		b.Set(k, i, 1)
	}
	rhs := make([]float64, k+1)
	rhs[k] = 1
	c, err := linalg.SolveLinear(b, rhs)
	if err != nil {
		d.ins, d.res = nil, nil
		return nil
	}
	var norm float64
	for i := 0; i < k; i++ {
		norm += math.Abs(c[i])
	}
	if norm > 1e4 || math.IsNaN(norm) {
		d.ins, d.res = nil, nil
		return nil
	}
	next := make([]float64, n)
	for i := 0; i < k; i++ {
		ci := c[i]
		if ci == 0 {
			continue
		}
		for a := 0; a < n; a++ {
			next[a] += ci * (ins[i][a] + d.beta*res[i][a])
		}
	}
	return next
}

// pulayNext adapts Pulay.Next to the allocate-and-return shape of the
// reference.
func pulayNext(p *Pulay) func(in, out []float64) []float64 {
	return func(in, out []float64) []float64 {
		next := make([]float64, len(in))
		p.Next(in, out, next)
		return next
	}
}

// TestPulayMatchesReferenceDIIS drives the ring mixer and the reference with
// the same (input, output) streams and demands the same bits at every step:
// a contracting map run well past the history depth (the ring wraps), a map
// that stalls onto identical residuals (the duplicates leave the
// extrapolation), one whose residuals differ by 1e-5 of their length along a
// single direction (two entries survive, and their near-parallel residuals
// trip the ‖c‖₁ > 1e4 reset), NaN input, and Next writing over its own input.
func TestPulayMatchesReferenceDIIS(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, n*n)
	for i := range a {
		a[i] = 0.25 * rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	contract := func(x []float64, _ int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = b[i] + linalg.Dot(a[i*n:(i+1)*n], x)
		}
		return out
	}
	stall := func(x []float64, step int) []float64 {
		out := contract(x, step)
		if step >= 4 && step < 9 { // same residual five steps running
			for i := range out {
				out[i] = x[i] + 0.5
			}
		}
		return out
	}
	nearDependent := func(x []float64, step int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = x[i] + 1 + 1e-5*float64(step*(i+1))
		}
		return out
	}
	poisoned := func(x []float64, step int) []float64 {
		out := contract(x, step)
		if step == 3 {
			out[2] = math.NaN()
		}
		return out
	}
	for name, f := range map[string]func([]float64, int) []float64{
		"contract": contract, "stall": stall, "near-dependent": nearDependent, "nan": poisoned,
	} {
		ref := &refDIIS{beta: 0.2, max: PulayDepth}
		mixer := NewPulay(n, 0.2)
		x := make([]float64, n)
		resets := 0
		for step := 0; step < 30; step++ {
			out := f(x, step)
			want := ref.next(x, out)
			if len(ref.ins) == 0 {
				resets++
			}
			mixer.Next(x, out, x) // in place, as the SCF loop calls it
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s step %d: next[%d] = %x, reference %x", name, step, i,
						math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
		if mixer.resets != resets {
			t.Errorf("%s: mixer counted %d resets, the reference reset %d times", name, mixer.resets, resets)
		}
		if (name == "near-dependent" || name == "nan") && resets == 0 {
			t.Errorf("%s: fixture never reached the reset path", name)
		}
		// A Reset mixer is as new: the same stream again gives the same bits.
		mixer.Reset(0.2)
		ref = &refDIIS{beta: 0.2, max: PulayDepth}
		x = make([]float64, n)
		for step := 0; step < 10; step++ {
			out := f(x, step)
			want := ref.next(x, out)
			mixer.Next(x, out, x)
			for i := range want {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s after Reset, step %d: next[%d] differs from the reference", name, step, i)
				}
			}
		}
	}
}

// linearFixedPoint iterates x ← A·x + b (spectral radius < 1) through a
// mixer and returns the iterations to reach tol.
func linearFixedPoint(mixer func(in, out []float64) []float64, n int, tol float64, maxIter int) int {
	rng := rand.New(rand.NewSource(5))
	// A = ρ·Q diag Q⁻¹ with eigenvalues up to 0.97: slow linear contraction.
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = 0.97 * (1 - float64(i)/float64(2*n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	apply := func(x []float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = diag[i]*x[i] + b[i]
		}
		return out
	}
	x := make([]float64, n)
	for k := 1; k <= maxIter; k++ {
		out := apply(x)
		var delta float64
		for i := range x {
			delta = math.Max(delta, math.Abs(out[i]-x[i]))
		}
		if delta < tol {
			return k
		}
		x = mixer(x, out)
	}
	return maxIter
}

func TestDIISBeatsLinearMixing(t *testing.T) {
	const n = 12
	linear := linearFixedPoint(func(in, out []float64) []float64 {
		next := make([]float64, n)
		for i := range next {
			next[i] = 0.7*in[i] + 0.3*out[i]
		}
		return next
	}, n, 1e-10, 5000)
	diisIters := linearFixedPoint(pulayNext(NewPulay(n, 0.3)), n, 1e-10, 5000)
	if diisIters*5 > linear {
		t.Fatalf("DIIS took %d iterations vs linear %d — expected ≥5× speedup", diisIters, linear)
	}
}

// TestDIISSurvivesDegenerateHistory: identical residuals carry no secant
// information — the duplicates are left out of the extrapolation, which is
// then the damped step, with nothing reset and nothing NaN. Residuals confined
// to a plane keep three entries of a six-deep history.
func TestDIISSurvivesDegenerateHistory(t *testing.T) {
	d := NewPulay(2, 0.4)
	in := []float64{1, 2}
	out := []float64{1.5, 2.5}
	next := make([]float64, 2)
	for k := 0; k < 6; k++ {
		d.Next(in, out, next)
		if next[0] != 1+0.4*0.5 || next[1] != 2+0.4*0.5 {
			t.Fatalf("step %d on a history of duplicates: next = %v, want the damped step", k, next)
		}
	}
	if d.resets != 0 {
		t.Fatalf("%d resets on a history of duplicates", d.resets)
	}

	// An affine map of a 5-vector that only ever moves its first two
	// coordinates, sampled at six unrelated inputs: the residual differences
	// span a plane, three entries determine the fixed point exactly.
	f := func(x []float64) []float64 {
		return []float64{0.5*x[0] + 0.1*x[1] + 0.2, 0.2*x[0] - 0.4*x[1] + 0.1, 1, 2, 3}
	}
	p := NewPulay(5, 0.3)
	x := make([]float64, 5)
	for k := 0; k < PulayDepth; k++ {
		in := []float64{math.Sin(float64(3 * k)), math.Cos(float64(5 * k)), 1, 2, 3}
		p.Next(in, f(in), x)
	}
	if _, nsel := p.independent(); nsel != 3 {
		t.Fatalf("planar residuals: %d independent entries, want 3", nsel)
	}
	if fx := f(x); math.Abs(fx[0]-x[0])+math.Abs(fx[1]-x[1]) > 1e-12 {
		t.Fatalf("planar affine map not solved by three entries: x = %v, f(x) = %v", x, fx)
	}
	if p.resets != 0 {
		t.Fatalf("%d resets on planar residuals", p.resets)
	}
}

func TestSolveSCFRobustEscalates(t *testing.T) {
	// With an absurdly low iteration cap the plain solve fails but the
	// interface still returns a clear error (escalation can't fix MaxIter).
	els, pos := waterGeometry()
	m, _ := NewModel(els, pos)
	opt := DefaultOptions()
	opt.MaxIter = 1
	if _, err := m.SolveSCFRobust(opt); err == nil {
		t.Fatal("expected failure at MaxIter=1")
	}
	// And the normal path succeeds.
	if _, err := m.SolveSCFRobust(DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}
