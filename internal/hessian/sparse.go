package hessian

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"qframan/internal/par"
)

// Sparse is a CSR (compressed sparse row) symmetric matrix — the global
// mass-weighted Hessian. For a 100M-atom system the dense matrix would be
// 300M×300M (the paper's motivating impossibility, §IV-B); fragment locality
// makes the assembled matrix sparse with O(1) nonzeros per row, so the
// Lanczos solver's matrix–vector products are linear in system size.
type Sparse struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// Dim returns the matrix dimension.
func (s *Sparse) Dim() int { return s.N }

// NNZ returns the number of stored nonzeros.
func (s *Sparse) NNZ() int { return len(s.Val) }

// MulVec computes y = S·x, row-sharded across the kernel pool. Each row
// accumulates in four independent chains over its column range — the fixed
// association depends only on the row's nonzero count, so results are
// bit-identical at any width — the property the Lanczos recurrence's
// bit-reproducibility rests on.
func (s *Sparse) MulVec(x, y []float64) {
	if len(x) != s.N || len(y) != s.N {
		panic("hessian: MulVec dimension mismatch")
	}
	par.For("spmv", s.N, 2048, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k, end := s.RowPtr[i], s.RowPtr[i+1]
			y[i] = rowDot(s.Val[k:end], s.Col[k:end], x)
		}
	})
}

// MulVecsRows computes ys[c][i] = (S·xs[c])[i] for rows lo ≤ i < hi and
// every column c — the multi-vector product of the lockstep Lanczos solve,
// whose caller shards the rows under the par contract. A row's Val/Col run
// is fetched once and multiplied into every column while it sits in L1, two
// columns per sweep so the eight accumulator chains stay in registers. Each
// column accumulates in MulVec's four-chain association, so ys[c] carries
// MulVec(xs[c])'s bits whatever the range split and whichever columns ride
// along.
func (s *Sparse) MulVecsRows(xs, ys [][]float64, lo, hi int) {
	if len(xs) != len(ys) {
		panic("hessian: MulVecsRows column count mismatch")
	}
	for c := range xs {
		if len(xs[c]) != s.N || len(ys[c]) != s.N {
			panic("hessian: MulVecsRows dimension mismatch")
		}
	}
	for i := lo; i < hi; i++ {
		k, end := s.RowPtr[i], s.RowPtr[i+1]
		val, col := s.Val[k:end], s.Col[k:end]
		c := 0
		for ; c+1 < len(xs); c += 2 {
			ys[c][i], ys[c+1][i] = rowDot2(val, col, xs[c], xs[c+1])
		}
		if c < len(xs) {
			ys[c][i] = rowDot(val, col, xs[c])
		}
	}
}

// rowDot is one row of S·x: Σ val[k]·x[col[k]] in four independent chains
// plus a tail, combined ((s0+s1)+(s2+s3))+tail.
func rowDot(val []float64, col []int32, x []float64) float64 {
	col = col[:len(val)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+3 < len(val); k += 4 {
		s0 += val[k] * x[col[k]]
		s1 += val[k+1] * x[col[k+1]]
		s2 += val[k+2] * x[col[k+2]]
		s3 += val[k+3] * x[col[k+3]]
	}
	var st float64
	for ; k < len(val); k++ {
		st += val[k] * x[col[k]]
	}
	return ((s0 + s1) + (s2 + s3)) + st
}

// rowDot2 is rowDot for two vectors at once, each in rowDot's association.
func rowDot2(val []float64, col []int32, x, z []float64) (float64, float64) {
	col = col[:len(val)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	k := 0
	for ; k+3 < len(val); k += 4 {
		v0, v1, v2, v3 := val[k], val[k+1], val[k+2], val[k+3]
		j0, j1, j2, j3 := col[k], col[k+1], col[k+2], col[k+3]
		s0 += v0 * x[j0]
		s1 += v1 * x[j1]
		s2 += v2 * x[j2]
		s3 += v3 * x[j3]
		t0 += v0 * z[j0]
		t1 += v1 * z[j1]
		t2 += v2 * z[j2]
		t3 += v3 * z[j3]
	}
	var st, tt float64
	for ; k < len(val); k++ {
		st += val[k] * x[col[k]]
		tt += val[k] * z[col[k]]
	}
	return ((s0 + s1) + (s2 + s3)) + st, ((t0 + t1) + (t2 + t3)) + tt
}

// At returns element (i,j); O(log nnz-per-row).
func (s *Sparse) At(i, j int) float64 {
	lo, hi := int(s.RowPtr[i]), int(s.RowPtr[i+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return int(s.Col[lo+k]) >= j })
	if k < hi && int(s.Col[k]) == j {
		return s.Val[k]
	}
	return 0
}

// MaxAbsAsymmetry returns max |S_ij − S_ji| — a health check; the assembled
// mass-weighted Hessian must be symmetric.
func (s *Sparse) MaxAbsAsymmetry() float64 {
	var worst float64
	for i := 0; i < s.N; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			j := int(s.Col[k])
			d := s.Val[k] - s.At(j, i)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Builder accumulates COO triplets and compresses them to CSR.
type Builder struct {
	n    int
	rows [][]entry
}

type entry struct {
	col int32
	val float64
}

// NewBuilder creates a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, rows: make([][]entry, n)}
}

// Add accumulates v into (i,j).
func (b *Builder) Add(i, j int, v float64) {
	b.rows[i] = append(b.rows[i], entry{col: int32(j), val: v})
}

// ScaleRowsCols applies S ← D⁻¹·S·D⁻¹ with D = diag(d): every accumulated
// entry (i,j) is divided by d[i]·d[j]. Used for mass weighting.
func (b *Builder) ScaleRowsCols(d []float64) {
	for i := range b.rows {
		for k := range b.rows[i] {
			e := &b.rows[i][k]
			e.val /= d[i] * d[e.col]
		}
	}
}

// ErrIndexOverflow reports a matrix with more stored non-zeros than the
// int32 CSR row pointers can address.
var ErrIndexOverflow = errors.New("hessian: CSR index overflow")

// checkNNZ guards the int32 row pointers: past 2³¹−1 stored entries they
// would wrap silently, and the paper-scale Hessian (3·10⁸ rows) is beyond
// that.
func checkNNZ(nnz int) error {
	if nnz > math.MaxInt32 {
		return fmt.Errorf("%w: %d non-zeros, int32 row pointers hold at most %d", ErrIndexOverflow, nnz, math.MaxInt32)
	}
	return nil
}

// Build merges duplicate entries and returns the CSR matrix, or
// ErrIndexOverflow when the non-zeros outgrow the int32 row pointers.
func (b *Builder) Build() (*Sparse, error) {
	s := &Sparse{N: b.n, RowPtr: make([]int32, b.n+1)}
	for i, row := range b.rows {
		sort.Slice(row, func(a, c int) bool { return row[a].col < row[c].col })
		for k := 0; k < len(row); {
			j := row[k].col
			var acc float64
			for ; k < len(row) && row[k].col == j; k++ {
				acc += row[k].val
			}
			if acc != 0 {
				s.Col = append(s.Col, j)
				s.Val = append(s.Val, acc)
			}
		}
		if err := checkNNZ(len(s.Col)); err != nil {
			return nil, fmt.Errorf("%w (row %d of %d)", err, i, b.n)
		}
		s.RowPtr[i+1] = int32(len(s.Col))
	}
	return s, nil
}
