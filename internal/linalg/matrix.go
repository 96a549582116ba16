// Package linalg implements the dense linear algebra substrate for the
// QF-RAMAN reproduction: a row-major matrix type, BLAS-style kernels, the
// batched-GEMM plan of the elastic offloading (§V-C), symmetric eigensolvers,
// and a Cholesky factorization for the generalized eigenproblem HC = SCε.
//
// Everything is pure Go over float64. The kernels deliberately mirror the
// BLAS call structure of the paper's DFPT engine — the batched grid GEMMs
// of §V-C and the symmetric half-computed products of §V-D (Fig. 6) — so that
// "number of GEMM invocations" and "FLOPs per phase" are meaningful
// quantities; dfpt counts them from its call lists (PhaseMetrics), the
// kernels count nothing. The hot kernels shard across internal/par's
// deterministic pool; see GemmOp for the bit-identity argument.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a row-major slice, which is used
// directly (not copied).
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Resize makes *m a rows×cols matrix over its own storage when that has room,
// and a new zero matrix when *m is nil or too small, and returns it: the
// scratch of a workspace kept across calls. A reused matrix keeps whatever
// its storage held, so a caller that accumulates into it clears it first.
func Resize(m **Matrix, rows, cols int) *Matrix {
	if *m == nil || cap((*m).Data) < rows*cols {
		*m = NewMatrix(rows, cols)
	} else {
		**m = Matrix{Rows: rows, Cols: cols, Data: (*m).Data[:rows*cols]}
	}
	return *m
}

// ResizeSlice is Resize for a slice: *s with length n over its own storage
// when that has room, a new zero slice otherwise; reused entries are stale.
func ResizeSlice[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates into element (i,j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// RowBlock returns a view of rows [lo, hi) (shared storage). It is a value,
// so a caller that reuses one variable for its views allocates nothing.
func (m *Matrix) RowBlock(lo, hi int) Matrix {
	return Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies the contents of src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("linalg: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// AddMatrix accumulates s·b into m; shapes must match.
func (m *Matrix) AddMatrix(b *Matrix, s float64) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddMatrix shape mismatch")
	}
	for i, v := range b.Data {
		m.Data[i] += s * v
	}
}

// Symmetrize replaces m by (m + mᵀ)/2; m must be square.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("linalg: Symmetrize on non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.Data[i*n+j] + m.Data[j*n+i])
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
}

// AddTranspose replaces m by m + mᵀ; m must be square.
func (m *Matrix) AddTranspose() {
	if m.Rows != m.Cols {
		panic("linalg: AddTranspose on non-square matrix")
	}
	n, d := m.Rows, m.Data
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			s := d[i*n+j] + d[j*n+i]
			d[i*n+j], d[j*n+i] = s, s
		}
		d[i*n+i] *= 2
	}
}

// MaxAbsDiff returns the max elementwise |m−b|; shapes must match.
func (m *Matrix) MaxAbsDiff(b *Matrix) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	var d float64
	for i, v := range m.Data {
		d = math.Max(d, math.Abs(v-b.Data[i]))
	}
	return d
}

// Dot returns the Euclidean inner product of two equal-length vectors.
// Four independent accumulator chains break the add-latency dependency of
// the naive loop; the association is a fixed function of the length alone,
// so the value is deterministic (and identical wherever Dot is called).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i, n := 0, len(a)
	for ; i+3 < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	var st float64
	for ; i < n; i++ {
		st += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + st
}

// Norm2 returns the Euclidean norm of a vector.
func Norm2(a []float64) float64 { return math.Sqrt(Dot(a, a)) }

// Axpy computes y += alpha*x, unrolled 4-wide. Each element is an
// independent chain, so unrolling cannot change any bit of the result.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	i, n := 0, len(x)
	for ; i+3 < n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Scal scales a vector in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}
