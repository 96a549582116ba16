// Package lanczos implements the paper's efficient Raman-spectra solver
// (§V-E): the matrix functional dᵀ·f(H)·d is evaluated with a k-step Lanczos
// recurrence whose tridiagonal matrix is augmented by the generalized
// averaged Gauss quadrature (GAGQ) of Spalević/Reichel into a (2k−1)×(2k−1)
// matrix T̂; diagonalizing T̂ yields Ritz nodes and weights that approximate
// the spectral measure of H seen from d. This replaces the impossible full
// diagonalization of the 3N×3N mass-weighted Hessian with k sparse
// matrix–vector products.
//
// A spectrum needs that functional for several start vectors on one H; Plan
// is the solve for all of them: the recurrences advance in lockstep so each
// step reads H once, the quadrature computes only the first row of T̂'s
// eigenvectors (Golub–Welsch), and the plan owns every vector involved. A
// recurrence reorthogonalizes only on the steps where Simon's ω-recurrence
// says its vectors are losing orthogonality (partial reorthogonalization,
// Simon 1984), not on every step. Plan is the package's only solver.
package lanczos

import (
	"errors"
	"fmt"
	"math"

	"qframan/internal/linalg"
	"qframan/internal/par"
)

// Operator is a symmetric linear operator (the sparse mass-weighted
// Hessian, or a dense reference).
type Operator interface {
	Dim() int
	// MulVec computes y = A·x; x and y have length Dim().
	MulVec(x, y []float64)
}

// RowsOperator is an Operator that can take its product with several vectors
// over a range of rows in one pass over its storage (hessian.Sparse). The
// lockstep solve shards those rows across the kernel pool; an Operator
// without it is applied one column at a time through MulVec.
type RowsOperator interface {
	Operator
	// MulVecsRows computes ys[c][i] = (A·xs[c])[i] for lo ≤ i < hi and
	// every c, each column with exactly the bits MulVec gives it.
	MulVecsRows(xs, ys [][]float64, lo, hi int)
}

// Tridiagonal holds the Lanczos recurrence coefficients: Alpha has k
// entries, Beta has k entries where Beta[k−1] is the residual coupling
// coefficient β_k (needed by the GAGQ augmentation).
type Tridiagonal struct {
	Alpha []float64
	Beta  []float64
	// Breakdown reports that the recurrence stopped on β-breakdown — an
	// invariant subspace, the measure fully resolved — rather than by
	// running out its K steps.
	Breakdown bool
}

// K returns the number of completed Lanczos steps.
func (t *Tridiagonal) K() int { return len(t.Alpha) }

// Options controls the Lanczos iteration.
type Options struct {
	// K is the number of Lanczos steps.
	K int
}

// ErrQuadrature reports that the eigen-solve of the (augmented) Lanczos
// tridiagonal did not converge — in practice a non-finite recurrence. It is
// deterministic for a given Hessian: the runtime must not retry it.
var ErrQuadrature = errors.New("lanczos: quadrature eigen-solve failed")

// rule is the quadrature of one recurrence: the diagonal, off-diagonal and
// eigenvector-first-row work vectors of T_k or T̂ (2K−1 entries hold either),
// and the density evaluation bound to the nodes and weights they become.
type rule struct {
	d, e, z        []float64
	nodes, weights []float64 // d[:m], z[:m] after build

	xs, out      []float64
	sigma, scale float64
	densFn       func(chunk, lo, hi int)
}

func newRule(k int) *rule {
	m := 2*k - 1
	r := &rule{d: make([]float64, m), e: make([]float64, m), z: make([]float64, m)}
	r.densFn = r.densRange
	return r
}

// build fills nodes and weights from t: the generalized averaged rule when
// gagq is set and t supports it, the plain Gauss rule otherwise. Plans
// always set gagq; the plain rule on demand is for the tests that compare
// the two.
//
// The averaged rule of Spalević is built from the (2k−1)×(2k−1) matrix
//
//	T̂ = [ T_k        β_k e_k e_1ᵀ ]
//	    [ β_k e_1 e_kᵀ   T'_{k−1} ]
//
// where T'_{k−1} is T_{k−1} with rows/columns reversed. Its eigen-pairs give
// nodes and weights that are substantially more accurate than the plain
// Gauss rule at negligible extra cost (the paper's §V-E choice).
func (r *rule) build(t *Tridiagonal, gagq bool) error {
	k := t.K()
	if k == 0 {
		return fmt.Errorf("%w: empty recurrence", ErrQuadrature)
	}
	if gagq && k >= 2 {
		// Early termination (β_k ≈ 0) means the measure is fully resolved by
		// the plain rule; the averaged augmentation would couple through a
		// numerically meaningless coefficient.
		var scale float64
		for _, a := range t.Alpha {
			scale = math.Max(scale, math.Abs(a))
		}
		gagq = !(t.Beta[k-1] <= 1e-12*math.Max(1, scale))
	}
	m := k
	if gagq && k >= 2 {
		m = 2*k - 1
	}
	d, e := r.d[:m], r.e[:m]
	copy(d, t.Alpha)      // α_1..α_k
	copy(e, t.Beta[:k-1]) // β_1..β_{k−1}
	if m > k {
		for i := 0; i < k-1; i++ {
			d[k+i] = t.Alpha[k-2-i] // α_{k−1}..α_1
		}
		e[k-1] = t.Beta[k-1] // coupling β_k
		for i := 0; i < k-2; i++ {
			e[k+i] = t.Beta[k-3-i] // β_{k−2}..β_1
		}
	}
	// Golub–Welsch: nodes are the eigenvalues, weights the squared first
	// components of the eigenvectors — the only part of them ever computed.
	if err := linalg.EigSymTridiagFirstRow(d, e, r.z[:m]); err != nil {
		return fmt.Errorf("%w: %v", ErrQuadrature, err)
	}
	r.nodes, r.weights = d, r.z[:m]
	for j, w := range r.weights {
		r.weights[j] = w * w
	}
	return nil
}

// density writes s(x) = dᵀ·g_σ(x − H)·d for x in xs into out, from the built
// rule; transform (nil = identity) maps the nodes into the x domain first.
func (r *rule) density(dNorm float64, xs []float64, sigma float64, transform func(float64) float64, out []float64) {
	if transform != nil {
		for i := range r.nodes {
			r.nodes[i] = transform(r.nodes[i])
		}
	}
	r.xs, r.out, r.sigma = xs, out, sigma
	r.scale = dNorm * dNorm * (1 / (math.Sqrt(2*math.Pi) * sigma))
	par.ForChunks("lanczos_density", len(xs), 64, r.densFn)
	r.xs, r.out = nil, nil
}

func (r *rule) densRange(_, lo, hi int) {
	sigma := r.sigma
	for xi := lo; xi < hi; xi++ {
		x := r.xs[xi]
		var s float64
		for j, node := range r.nodes {
			dx := (x - node) / sigma
			if dx > 8 || dx < -8 {
				continue
			}
			s += r.weights[j] * math.Exp(-0.5*dx*dx)
		}
		r.out[xi] = r.scale * s
	}
}
