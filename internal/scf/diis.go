package scf

import (
	"math"

	"qframan/internal/linalg"
)

// PulayDepth is the history length of the mixer: the last six (input,
// residual) pairs span the extrapolation.
const PulayDepth = 6

// pulayRankTol decides which of them take part: a pair joins the extrapolation
// only if the part of its residual difference to the newest residual that is
// orthogonal to the differences already taken (newer first) is longer than
// 1e-6 of the residuals it is the difference of (1e-12 of their squared norm):
// four digits above what the cancellation in a Gram matrix leaves of it, far
// below any direction a fixed-point map actually moves in.
const pulayRankTol = 1e-12

// Pulay is Pulay mixing (direct inversion in the iterative subspace) of a
// fixed-point iteration x ← F(x): the next input is the residual-minimizing
// linear combination of the recent history, plus a damped residual step.
// The SCF charge loop runs it on the Mulliken charge vector, where it kills
// the charge-sloshing slow modes that make plain linear mixing take thousands
// of iterations on extended peptide fragments; the DFPT response loop runs it
// on P⁽¹⁾, whose fixed-point map is affine, so the extrapolation is a
// restarted Krylov solve rather than a creep toward the answer.
//
// One value serves any number of solves of one vector length and allocates
// only when it is made: inputs and residuals live in a ring of PulayDepth
// slots, the Gram matrix of the residuals is kept per slot and gains one row
// per step, and the bordered normal equations are solved in the mixer's own
// scratch. A Pulay is used by one goroutine at a time.
type Pulay struct {
	beta     float64 // damping of the extrapolated residual
	ins, res [PulayDepth][]float64
	// gram[a][b] = ⟨res[a], res[b]⟩ over the live slots.
	gram [PulayDepth][PulayDepth]float64
	// The history is the k slots head, head+1, … (mod PulayDepth), oldest
	// first.
	head, k int
	resets  int
	// The bordered system of extrapolate, (k+1)² and k+1 entries at a time.
	b, c []float64
}

// NewPulay returns a mixer for vectors of length n with damping beta.
func NewPulay(n int, beta float64) *Pulay {
	p := &Pulay{beta: beta}
	const border = PulayDepth + 1
	buf := make([]float64, 2*PulayDepth*n+border*border+border)
	for s := 0; s < PulayDepth; s++ {
		p.ins[s], buf = buf[:n:n], buf[n:]
		p.res[s], buf = buf[:n:n], buf[n:]
	}
	p.b, p.c = buf[:border*border], buf[border*border:]
	return p
}

// Reset forgets the history and the reset count and sets the damping: the
// mixer is as new, for the next solve.
func (p *Pulay) Reset(beta float64) {
	p.beta, p.head, p.k, p.resets = beta, 0, 0, 0
}

// Resets returns how many times since the last Reset the mixer discarded an
// ill-conditioned history and fell back to a damped step.
func (p *Pulay) Resets() int { return p.resets }

// slot returns the ring slot of history entry i, oldest first.
func (p *Pulay) slot(i int) int { return (p.head + i) % PulayDepth }

// Next consumes the (input, output) pair of one iteration and writes the next
// input to next, which may alias in or out.
func (p *Pulay) Next(in, out, next []float64) {
	if p.k == PulayDepth {
		p.head = p.slot(1)
		p.k--
	}
	s := p.slot(p.k)
	p.k++
	xs, rs := p.ins[s], p.res[s]
	copy(xs, in)
	for i := range rs {
		rs[i] = out[i] - in[i]
	}
	for j := 0; j < p.k; j++ {
		t := p.slot(j)
		g := linalg.Dot(rs, p.res[t])
		p.gram[s][t], p.gram[t][s] = g, g
	}
	if p.k >= 2 && p.extrapolate(next) {
		return
	}
	// Warm-up, or fallback after a reset: damped linear step.
	for i := range next {
		next[i] = xs[i] + p.beta*rs[i]
	}
}

// independent lists, oldest first, the history entries whose residuals are
// affinely independent to working precision: the newest, and going back from
// it every entry whose difference to the newest is not (numerically) a
// combination of the differences already listed — a Cholesky factorization of
// the differences' Gram matrix that skips a row when its pivot vanishes.
// Residuals confined to a d-dimensional space (the na − 1 independent charges
// of a small fragment, fewer under symmetry) admit d + 1 such entries however
// long the history; with more, the bordered system below is singular and its
// solution is decided by rounding. A full-rank history lists every entry.
func (p *Pulay) independent() (sel [PulayDepth]int, nsel int) {
	k := p.k
	g := &p.gram
	nw := p.slot(k - 1)
	var l [PulayDepth][PulayDepth]float64
	var taken [PulayDepth]int // slots of the listed entries, newest first
	nt := 0
	sel[PulayDepth-1] = k - 1
	for i := k - 2; i >= 0; i-- {
		si := p.slot(i)
		pivot := g[si][si] - 2*g[si][nw] + g[nw][nw]
		for a := 0; a < nt; a++ {
			sj := taken[a]
			v := g[si][sj] - g[si][nw] - g[nw][sj] + g[nw][nw]
			for b := 0; b < a; b++ {
				v -= l[nt][b] * l[a][b]
			}
			v /= l[a][a]
			l[nt][a] = v
			pivot -= v * v
		}
		if !(pivot > pulayRankTol*max(g[si][si], g[nw][nw])) {
			continue
		}
		l[nt][nt] = math.Sqrt(pivot)
		taken[nt] = si
		nt++
		sel[PulayDepth-1-nt] = i
	}
	// sel was filled from its end; shift the nt+1 entries to the front.
	nsel = nt + 1
	copy(sel[:nsel], sel[PulayDepth-nsel:])
	return sel, nsel
}

// extrapolate solves the constrained least squares min ‖Σ cᵢ rᵢ‖², Σcᵢ = 1
// over the independent history entries via the bordered normal equations and
// writes Σ cᵢ (inᵢ + β rᵢ) to next. An ill-conditioned system discards the
// history instead and reports false.
func (p *Pulay) extrapolate(next []float64) bool {
	sel, k := p.independent()
	b := linalg.Matrix{Rows: k + 1, Cols: k + 1, Data: p.b[:(k+1)*(k+1)]}
	c := p.c[:k+1]
	for i := 0; i < k; i++ {
		row := b.Row(i)
		for j := 0; j < k; j++ {
			row[j] = p.gram[p.slot(sel[i])][p.slot(sel[j])]
		}
		row[k] = 1
		b.Set(k, i, 1)
		c[i] = 0
	}
	b.Set(k, k, 0)
	c[k] = 1
	norm := math.NaN()
	if linalg.SolveLinearInPlace(&b, c) == nil {
		norm = 0
		for i := 0; i < k; i++ {
			norm += math.Abs(c[i])
		}
	}
	if norm > 1e4 || math.IsNaN(norm) {
		p.head, p.k = 0, 0
		p.resets++
		return false
	}
	for a := range next {
		next[a] = 0
	}
	for i := 0; i < k; i++ {
		ci := c[i]
		if ci == 0 {
			continue
		}
		xs, rs := p.ins[p.slot(sel[i])], p.res[p.slot(sel[i])]
		for a := range next {
			next[a] += ci * (xs[a] + p.beta*rs[a])
		}
	}
	return true
}
