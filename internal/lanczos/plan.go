package lanczos

import (
	"fmt"
	"math"

	"qframan/internal/par"
)

// Plan is the spectral solve of one operator shape: up to Cols Lanczos
// recurrences advanced in lockstep — one pass over the operator per step for
// all of them — and the quadrature and density evaluation of each. It owns
// every vector the solve touches (the Lanczos vectors of each column as one
// block, the recurrence coefficients, the T̂ work vectors, the density
// buffers), so a second Solve or Densities on the same plan allocates
// nothing. One goroutine drives a plan; the plan fans out over the kernel
// pool itself.
//
// Orthogonality is kept by need (Simon's partial reorthogonalization): each
// column runs the ω-recurrence, an O(s) scalar estimate of how far its next
// vector has drifted from the stored ones, and sweeps w against all of them
// only on a step where the estimate passes √ε, and on the step after. The
// vectors stay semi-orthogonal, which is all the α and β of the recurrence —
// and so the Gauss and GAGQ rules — need to carry full precision.
//
// Every column carries exactly the bits of a one-column solve: the product
// keeps MulVec's association per column, and everything after it touches
// only the column's own state. All reductions go through the pool's
// deterministic chunked forms, so the coefficients (and the Ritz nodes built
// from them) are bit-reproducible for any kernel-thread count.
type Plan struct {
	op   Operator
	rows RowsOperator // op, when it can multiply several columns per pass
	n    int

	cols   []column
	used   int       // columns the last Solve was given
	active []*column // columns still iterating, in column order
	xs, ys [][]float64
	zero   []float64 // q₀ of every recurrence: the vector before the first

	dxs       []float64
	sigma     float64
	transform func(float64) float64

	spmmFn, stepFn, densFn func(chunk, lo, hi int)
}

// column is one recurrence: its Lanczos vectors, coefficients and quadrature.
type column struct {
	n, k int
	// hist holds the K Lanczos vectors row by row.
	hist  []float64
	w     []float64
	alpha []float64
	beta  []float64

	// omega and omegaPrev are rows s and s−1 of the ω-recurrence, the
	// estimate of ⟨q_s, q_k⟩ for k ≤ s (see estimate); K+1 floats each.
	omega, omegaPrev []float64
	eps1             float64 // ε·√n, the orthogonality level a sweep leaves
	anorm            float64 // running bound on ‖T‖
	pair             bool    // the last step swept on the ω trigger, so this one sweeps too
	reorths          int     // steps of the last Solve that swept

	solved   bool // the last Solve ran this column (it had a non-zero start)
	step     int
	norm     float64
	betaPrev float64
	tri      Tridiagonal

	// Operands of the bound kernels, and the per-chunk partials of the two
	// reductions.
	ka, kb     float64
	kx, ky, kz []float64
	part       []float64
	dotFn      func(chunk, lo, hi int)
	axpyDotFn  func(chunk, lo, hi int)
	updateFn   func(chunk, lo, hi int)
	scaleFn    func(chunk, lo, hi int)

	rule *rule
	dens []float64
	err  error
}

// vecChunk is the lanczos_vec grain: the elementwise recurrence updates are
// bandwidth-bound, so chunks below a few thousand elements do not repay a
// dispatch.
const vecChunk = 4096

// spmmWork is the multi-vector product's grain in row·column units: seven
// columns split the 243 rows of an 81-atom Hessian in four, one column keeps
// MulVec's coarser chunks.
const spmmWork = 512

// NewPlan prepares the solve of up to cols start vectors on op.
func NewPlan(op Operator, cols int, opt Options) (*Plan, error) {
	if opt.K <= 0 {
		return nil, fmt.Errorf("lanczos: K must be positive")
	}
	if cols <= 0 {
		return nil, fmt.Errorf("lanczos: a plan needs at least one column")
	}
	n := op.Dim()
	p := &Plan{op: op, n: n,
		cols:   make([]column, cols),
		active: make([]*column, 0, cols),
		xs:     make([][]float64, 0, cols),
		ys:     make([][]float64, 0, cols),
		zero:   make([]float64, n),
	}
	p.rows, _ = op.(RowsOperator)
	for i := range p.cols {
		c := &p.cols[i]
		*c = column{n: n, k: opt.K,
			hist:      make([]float64, opt.K*n),
			w:         make([]float64, n),
			alpha:     make([]float64, opt.K),
			beta:      make([]float64, opt.K),
			omega:     make([]float64, opt.K+1),
			omegaPrev: make([]float64, opt.K+1),
			eps1:      eps * math.Sqrt(float64(n)),
			part:      make([]float64, par.Chunks(n, par.DotChunk)),
			rule:      newRule(opt.K),
		}
		c.dotFn, c.axpyDotFn, c.updateFn, c.scaleFn = c.dotChunk, c.axpyDotChunk, c.update, c.scale
	}
	p.spmmFn, p.stepFn, p.densFn = p.spmm, p.stepCols, p.densCols
	return p, nil
}

// Solve runs the recurrences from the (not necessarily normalized) start
// vectors, column c from starts[c]. A nil or exactly zero start vector skips
// its column: Density returns nil for it. The vectors are
// only read, and not kept.
func (p *Plan) Solve(starts [][]float64) error {
	if len(starts) > len(p.cols) {
		return fmt.Errorf("lanczos: %d start vectors for a %d-column plan", len(starts), len(p.cols))
	}
	for _, d := range starts {
		if d != nil && len(d) != p.n {
			return fmt.Errorf("lanczos: start vector has %d entries, operator dimension %d", len(d), p.n)
		}
	}
	p.used = len(starts)
	p.active = p.active[:0]
	for i := range p.cols {
		c := &p.cols[i]
		c.solved = false
		if i < len(starts) && starts[i] != nil && c.begin(starts[i]) {
			p.active = append(p.active, c)
		}
	}
	for len(p.active) > 0 {
		p.xs, p.ys = p.xs[:0], p.ys[:0]
		for _, c := range p.active {
			p.xs = append(p.xs, c.row(c.step))
			p.ys = append(p.ys, c.w)
		}
		if p.rows != nil {
			par.ForChunks("spmv", p.n, max(1, spmmWork/len(p.active)), p.spmmFn)
		} else {
			for i, x := range p.xs {
				p.op.MulVec(x, p.ys[i])
			}
		}
		par.Fan("lanczos_step", len(p.active), p.stepFn)
		// A column that broke down or ran out its K steps leaves the active
		// set; the others keep their order.
		live := p.active[:0]
		for _, c := range p.active {
			if !c.done() {
				live = append(live, c)
			}
		}
		p.active = live
	}
	return nil
}

func (p *Plan) spmm(_, lo, hi int) { p.rows.MulVecsRows(p.xs, p.ys, lo, hi) }

func (p *Plan) stepCols(_, lo, hi int) {
	for _, c := range p.active[lo:hi] {
		c.advance(p.zero)
	}
}

// Stats summarizes what the last Solve did.
type Stats struct {
	Steps            int // Lanczos steps taken, summed over columns
	EarlyStops       int // columns that stopped on β-breakdown before K steps
	SkippedStarts    int // columns skipped for a nil or zero start vector
	Reorthogonalized int // steps that ran a Gram–Schmidt sweep, summed over columns
}

// Stats returns the counts of the last Solve.
func (p *Plan) Stats() Stats {
	var s Stats
	for i := range p.cols[:p.used] {
		c := &p.cols[i]
		if !c.solved {
			s.SkippedStarts++
			continue
		}
		s.Steps += c.step
		s.Reorthogonalized += c.reorths
		if c.tri.Breakdown {
			s.EarlyStops++
		}
	}
	return s
}

// Densities evaluates, for every column the last Solve ran, the spectral
// density s(x) = dᵀ·g_σ(x − H)·d on xs, one column per pool chunk; Density
// returns the results. g_σ is a normalized Gaussian, the regularized δ of
// the paper's Eq. (8); transform (nil = identity) maps operator eigenvalues
// to the x domain, for Raman mass-weighted Hessian eigenvalues to
// wavenumbers. The quadrature is the generalized averaged Gauss rule (the
// plain Gauss rule where the recurrence stopped early). The error wraps
// ErrQuadrature.
func (p *Plan) Densities(xs []float64, sigma float64, transform func(float64) float64) error {
	p.dxs, p.sigma, p.transform = xs, sigma, transform
	for i := range p.cols {
		if c := &p.cols[i]; c.solved && len(c.dens) != len(xs) {
			c.dens = make([]float64, len(xs))
		}
	}
	par.Fan("lanczos_rule", len(p.cols), p.densFn)
	p.dxs, p.transform = nil, nil
	for i := range p.cols {
		if c := &p.cols[i]; c.solved && c.err != nil {
			return fmt.Errorf("column %d: %w", i, c.err)
		}
	}
	return nil
}

func (p *Plan) densCols(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := &p.cols[i]
		if !c.solved {
			continue
		}
		if c.err = c.rule.build(&c.tri, true); c.err == nil {
			c.rule.density(c.norm, p.dxs, p.sigma, p.transform, c.dens)
		}
	}
}

// Density returns column c's density from the last Densities, or nil for a
// skipped column. It is a view into the plan, valid until the next call.
func (p *Plan) Density(c int) []float64 {
	col := &p.cols[c]
	if !col.solved {
		return nil
	}
	return col.dens
}

// row returns the storage of Lanczos vector s.
func (c *column) row(s int) []float64 { return c.hist[s*c.n : (s+1)*c.n] }

// begin normalizes the start vector into the first Lanczos vector and
// reports whether there is anything to iterate on.
func (c *column) begin(d []float64) bool {
	c.norm = math.Sqrt(c.dot(d, d))
	c.solved = c.norm != 0
	if c.solved {
		c.step, c.betaPrev = 0, 0
		c.tri = Tridiagonal{}
		c.omega[0], c.anorm, c.pair, c.reorths = 1, 0, false, 0
		c.ka, c.kx, c.kz = c.norm, d, c.row(0)
		par.ForChunks("lanczos_vec", c.n, vecChunk, c.scaleFn)
	}
	c.kx, c.ky, c.kz = nil, nil, nil // d is the caller's
	return c.solved
}

func (c *column) done() bool { return c.tri.Breakdown || c.step == c.k }

// advance completes one step of the recurrence from w = A·q_s: α_s, the
// three-term update, β_s and the next vector — with a Gram–Schmidt sweep of
// w on the steps where the ω-recurrence says q_{s+1} would lose
// orthogonality to the stored vectors, and on the step after each such one.
func (c *column) advance(zero []float64) {
	s := c.step
	q, qPrev := c.row(s), zero
	if s > 0 {
		qPrev = c.row(s - 1)
	}
	alpha := c.dot(q, c.w)
	c.alpha[s] = alpha
	c.ka, c.kb, c.kx, c.ky = alpha, c.betaPrev, q, qPrev
	par.ForChunks("lanczos_vec", c.n, vecChunk, c.updateFn)
	beta := math.Sqrt(c.dot(c.w, c.w))
	c.anorm = math.Max(c.anorm, math.Abs(alpha)+beta+c.betaPrev)
	next := c.omegaPrev // becomes row s+1
	if c.pair || c.estimate(next, s, alpha, beta) > sqrtEps {
		// Simon's pair rule: the three-term recurrence carries the
		// components of q_s into q_{s+2}, so the step after a sweep sweeps
		// as well. A swept vector is orthogonal to working precision.
		c.pair = !c.pair
		c.reorths++
		beta = math.Sqrt(c.sweep(s))
		for k := range next[:s+1] {
			next[k] = c.eps1
		}
		next[s+1] = 1
	}
	c.omega, c.omegaPrev = next, c.omega
	c.beta[s] = beta
	c.step = s + 1
	c.tri.Alpha, c.tri.Beta = c.alpha[:c.step], c.beta[:c.step]
	switch {
	case beta < 1e-13*math.Max(1, math.Abs(alpha)):
		// Invariant subspace: the measure is fully resolved.
		c.tri.Breakdown = true
	case c.step < c.k:
		c.ka, c.kx, c.kz = beta, c.w, c.row(c.step)
		par.ForChunks("lanczos_vec", c.n, vecChunk, c.scaleFn)
		c.betaPrev = beta
	}
	c.kx, c.ky, c.kz = nil, nil, nil
}

// eps is the float64 machine epsilon; a recurrence is semi-orthogonal while
// every |⟨q_i, q_k⟩| stays below √ε, which keeps the computed α and β those
// of an exactly orthogonal recurrence to working precision (Simon 1984).
const eps = 0x1p-52

var sqrtEps = math.Sqrt(eps)

// estimate advances the ω-recurrence of Simon's partial reorthogonalization
// to row s+1 and returns max_{k≤s} |ω_{s+1,k}|, the estimate of
// |⟨q_{s+1}, q_k⟩| for the vector w/β the step is about to produce. Taking
// ⟨q_k, ·⟩ of the three-term recurrence on both sides of A's symmetry gives
//
//	β_s·ω_{s+1,k} = β_k·ω_{s,k+1} + (α_k − α_s)·ω_{s,k} + β_{k−1}·ω_{s,k−1} − β_{s−1}·ω_{s−1,k} + ϑ,
//
// where the rounding term ϑ is taken as ε₁·‖T‖ with the sign of the rest, so
// the estimate grows rather than cancels, and the local level ω_{s+1,s} as
// ε₁·‖T‖/β_s. It reads only α and β — O(s) scalars per step — so whether a
// step sweeps never depends on the kernel width. next holds row s−1 on entry
// (each entry is read once, at its own index, before it is overwritten) and
// row s+1 on return; c.omega holds row s.
func (c *column) estimate(next []float64, s int, alpha, beta float64) float64 {
	cur, betaPrev := c.omega, c.betaPrev
	theta := c.eps1 * c.anorm
	var worst float64
	for k := 0; k < s; k++ {
		t := c.beta[k]*cur[k+1] + (c.alpha[k]-alpha)*cur[k] - betaPrev*next[k]
		if k > 0 {
			t += c.beta[k-1] * cur[k-1]
		}
		t = (t + math.Copysign(theta, t)) / beta
		next[k] = t
		worst = math.Max(worst, math.Abs(t))
	}
	next[s], next[s+1] = theta/beta, 1
	return math.Max(worst, next[s])
}

// sweep orthogonalizes w against every stored q and returns ‖w‖²: two passes
// of Gram–Schmidt against q_0..q_s, each projection taken from the w the
// previous one left: c = ⟨w, qᵢ⟩, w −= c·qᵢ. The sweep that subtracts along
// qᵢ also accumulates the next product — with qᵢ₊₁, with q₀ at the pass
// boundary, with w itself at the end, which is ‖w‖² — so w and every qᵢ are
// streamed once per projection.
func (c *column) sweep(s int) float64 {
	m := s + 1
	ci := c.dot(c.w, c.row(0))
	for t := 0; t < 2*m; t++ {
		next := c.w
		if t+1 < 2*m {
			next = c.row((t + 1) % m)
		}
		if ci != 0 {
			ci = c.axpyDot(-ci, c.row(t%m), next)
		} else {
			ci = c.dot(c.w, next)
		}
	}
	return ci
}

// dot is the chunked dot product of par.DotChunk — its chunk layout,
// per-chunk association and ascending combine — on the column's own partials.
func (c *column) dot(x, y []float64) float64 {
	c.kx, c.ky = x, y
	par.ForChunks("dot", c.n, par.DotChunk, c.dotFn)
	return c.combine()
}

func (c *column) dotChunk(chunk, lo, hi int) {
	c.part[chunk] = par.DotRange(c.kx, c.ky, lo, hi)
}

// axpyDot is w += a·x followed by dot(w, y), fused into one sweep with
// the bits of the two: every chunk updates its own range of w before
// multiplying it, in DotRange's four chains. y may be w.
func (c *column) axpyDot(a float64, x, y []float64) float64 {
	c.ka, c.kx, c.ky = a, x, y
	par.ForChunks("lanczos_gs", c.n, par.DotChunk, c.axpyDotFn)
	return c.combine()
}

func (c *column) axpyDotChunk(chunk, lo, hi int) {
	// Same-length views let the compiler drop the bounds checks, and keeping
	// the updated elements in registers spares the products a store-to-load
	// round trip (y may be w, so the stores come before y is read).
	a, w := c.ka, c.w[lo:hi]
	x, y := c.kx[lo:hi][:len(w)], c.ky[lo:hi][:len(w)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(w); i += 4 {
		w0 := w[i] + a*x[i]
		w1 := w[i+1] + a*x[i+1]
		w2 := w[i+2] + a*x[i+2]
		w3 := w[i+3] + a*x[i+3]
		w[i], w[i+1], w[i+2], w[i+3] = w0, w1, w2, w3
		s0 += w0 * y[i]
		s1 += w1 * y[i+1]
		s2 += w2 * y[i+2]
		s3 += w3 * y[i+3]
	}
	var st float64
	for ; i < len(w); i++ {
		w0 := w[i] + a*x[i]
		w[i] = w0
		st += w0 * y[i]
	}
	c.part[chunk] = ((s0 + s1) + (s2 + s3)) + st
}

// combine adds the per-chunk partials the way par.ReduceSum does.
func (c *column) combine() float64 {
	if len(c.part) == 1 {
		return c.part[0]
	}
	var s float64
	for _, p := range c.part { // ordered combine: chunk 0, 1, 2, …
		s += p
	}
	return s
}

// update is w −= ka·kx + kb·ky, the three-term recurrence.
func (c *column) update(_, lo, hi int) {
	a, b, x, y, w := c.ka, c.kb, c.kx, c.ky, c.w
	for i := lo; i < hi; i++ {
		w[i] -= a*x[i] + b*y[i]
	}
}

// scale is kz = kx / ka.
func (c *column) scale(_, lo, hi int) {
	a, x, z := c.ka, c.kx, c.kz
	for i := lo; i < hi; i++ {
		z[i] = x[i] / a
	}
}
