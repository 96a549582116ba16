package linalg

import "sync"

// This file implements the two GEMM kernels behind GemmOp (blas.go) — and
// with it behind Gemm and the batch plan (paper §V-C, batch.go). The blocked
// kernel packs op(A) and op(B) into register-tile panels (zero-padded to the
// 4×2 micro-tile); its micro-kernel accumulates a 4×2 block of C in eight
// independent scalar chains (the ILP a superscalar core — or a compiler's
// vectorizer — needs), and the write-back masks the padded tails so they can
// never leak into C. The direct kernel (gemmDirect) runs 2×2 tiles of the same
// chains straight from A and B through strides — no pack buffers, no pool —
// for operands so small that packing costs more than the product; a pure
// function of the shape (gemmDirectShape) chooses between the two.
//
// # Bit-determinism of both kernels
//
// Every output element C[i,j] is produced by exactly one accumulator whose k
// terms are added in ascending order, then combined as alpha·s + beta·C[i,j]
// (beta == 0 omits the C term entirely, per BLAS convention). Because each
// element's chain is independent, *any* loop blocking over i and j — tiles,
// panels, row chunks, batch grouping — yields bit-identical results; because
// zero-padded tail rows/columns are discarded by the masked write-back while
// k is never padded, padding cannot perturb bits either; and because a chain
// does not care whether its operands were read from a pack buffer or from the
// matrices themselves, packed == direct. This is what makes blocked ==
// direct == unblocked == batched == the naive triple-loop reference
// (gemmref), exactly, and keeps the PR 4 width/batch invariance contract
// intact.

const (
	// mr×nr is the register micro-tile: 8 independent accumulator chains.
	// 4×2 is the sweet spot for the gc amd64 backend — 8 accumulators plus
	// 6 operand temporaries fit the 16 XMM registers without spilling
	// (a 4×4 tile's 16 accumulators + 8 temporaries spill and run slower).
	mr = 4
	nr = 2
)

// packPool recycles pack buffers; contents are fully overwritten (including
// pad lanes) on every use, so reuse cannot affect results.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

func getPack(n int) *[]float64 {
	p := packPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPack(p *[]float64) { packPool.Put(p) }

// packOpB packs op(B) (k×n) into nr-column panels: buf[jp*k*nr + kk*nr + c]
// holds op(B)[kk, jp*nr+c], zero when the column is past n.
func packOpB(trans bool, b *Matrix, k, n int, buf []float64) {
	np := (n + nr - 1) / nr
	if !trans {
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			dst := buf[jp*k*nr:]
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			for kk := 0; kk < k; kk++ {
				row := b.Data[kk*b.Cols+j0:]
				d := dst[kk*nr : kk*nr+nr]
				for c := 0; c < cols; c++ {
					d[c] = row[c]
				}
				for c := cols; c < nr; c++ {
					d[c] = 0
				}
			}
		}
	} else {
		// op(B)[kk, j] = B[j, kk]
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			dst := buf[jp*k*nr:]
			cols := n - j0
			if cols > nr {
				cols = nr
			}
			for kk := 0; kk < k; kk++ {
				d := dst[kk*nr : kk*nr+nr]
				for c := 0; c < cols; c++ {
					d[c] = b.Data[(j0+c)*b.Cols+kk]
				}
				for c := cols; c < nr; c++ {
					d[c] = 0
				}
			}
		}
	}
}

// packOpAPanel packs rows [i0, i0+mr) of op(A) (m×k) into one mr-row panel:
// buf[kk*mr + r] holds op(A)[i0+r, kk], zero when the row is past m.
func packOpAPanel(trans bool, a *Matrix, i0, m, k int, buf []float64) {
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	if !trans {
		if rows == mr {
			// Full panel: four row streams interleave into contiguous writes.
			r0 := a.Data[i0*a.Cols:]
			r1 := a.Data[(i0+1)*a.Cols:]
			r2 := a.Data[(i0+2)*a.Cols:]
			r3 := a.Data[(i0+3)*a.Cols:]
			for kk := 0; kk < k; kk++ {
				d := buf[kk*mr : kk*mr+mr : kk*mr+mr]
				d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
			}
			return
		}
		for r := 0; r < rows; r++ {
			row := a.Data[(i0+r)*a.Cols:]
			for kk := 0; kk < k; kk++ {
				buf[kk*mr+r] = row[kk]
			}
		}
	} else {
		// op(A)[i, kk] = A[kk, i]
		for r := 0; r < rows; r++ {
			for kk := 0; kk < k; kk++ {
				buf[kk*mr+r] = a.Data[kk*a.Cols+i0+r]
			}
		}
	}
	for r := rows; r < mr; r++ {
		for kk := 0; kk < k; kk++ {
			buf[kk*mr+r] = 0
		}
	}
}

// microTile accumulates the mr×nr tile at (i0, j0) — acc[r][c] = Σ_k
// ap[k*mr+r]·bp[k*nr+c], k ascending, one independent chain per element —
// and applies the masked write-back C[i,j] = alpha·acc + beta·C[i,j] over
// the real (unpadded) extent in the same call, so accumulators never round-
// trip through memory. The reslice idiom keeps the k loop bounds-check-free.
func microTile(ap, bp []float64, k int, c *Matrix, i0, j0, m, n int, alpha, beta float64) {
	var c00, c01, c10, c11, c20, c21, c30, c31 float64
	kk := 0
	for ; kk+3 < k; kk += 4 {
		_ = ap[15]
		_ = bp[7]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[8], ap[9], ap[10], ap[11]
		b0, b1 = bp[4], bp[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[12], ap[13], ap[14], ap[15]
		b0, b1 = bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[4*mr:]
		bp = bp[4*nr:]
	}
	for ; kk+1 < k; kk += 2 {
		_ = ap[7]
		_ = bp[3]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[2*mr:]
		bp = bp[2*nr:]
	}
	if kk < k {
		_ = ap[3]
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		_ = bp[1]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
	}

	cd, ld := c.Data, c.Cols
	if i0+mr <= m && j0+nr <= n {
		// Full tile: unmasked write-back.
		o0 := i0*ld + j0
		o1, o2, o3 := o0+ld, o0+2*ld, o0+3*ld
		if beta == 0 {
			cd[o0], cd[o0+1] = alpha*c00, alpha*c01
			cd[o1], cd[o1+1] = alpha*c10, alpha*c11
			cd[o2], cd[o2+1] = alpha*c20, alpha*c21
			cd[o3], cd[o3+1] = alpha*c30, alpha*c31
		} else {
			cd[o0], cd[o0+1] = alpha*c00+beta*cd[o0], alpha*c01+beta*cd[o0+1]
			cd[o1], cd[o1+1] = alpha*c10+beta*cd[o1], alpha*c11+beta*cd[o1+1]
			cd[o2], cd[o2+1] = alpha*c20+beta*cd[o2], alpha*c21+beta*cd[o2+1]
			cd[o3], cd[o3+1] = alpha*c30+beta*cd[o3], alpha*c31+beta*cd[o3+1]
		}
		return
	}
	var acc [mr * nr]float64
	acc[0], acc[1] = c00, c01
	acc[2], acc[3] = c10, c11
	acc[4], acc[5] = c20, c21
	acc[6], acc[7] = c30, c31
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	cols := n - j0
	if cols > nr {
		cols = nr
	}
	for r := 0; r < rows; r++ {
		crow := cd[(i0+r)*ld+j0:]
		for cc := 0; cc < cols; cc++ {
			if beta == 0 {
				crow[cc] = alpha * acc[r*nr+cc]
			} else {
				crow[cc] = alpha*acc[r*nr+cc] + beta*crow[cc]
			}
		}
	}
}

// gemmDirect runs row panels [p0, p1) of C = alpha·op(A)·op(B) + beta·C
// straight from A and B: op(A)[i,kk] and op(B)[kk,j] are read through strides
// (which is all a trans flag is), a 2×2 tile of C accumulates in four
// k-ascending chains, and nothing is packed or pooled. The small tile is the
// point: it fits the two-row operands of a water fragment without padding and
// keeps operands, indices and bounds in registers. A tile hanging over the edge
// of C aliases its missing row or column to its real one; that chain is
// computed and never stored. onlyLower as in gemmPanels.
func gemmDirect(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix, m, k, n, p0, p1 int, onlyLower bool) {
	ad, ai, ak := a.Data, a.Cols, 1 // op(A)[i,kk] = ad[i*ai+kk*ak]
	if transA {
		ai, ak = 1, a.Cols
	}
	bd, bk, bj := b.Data, b.Cols, 1 // op(B)[kk,j] = bd[kk*bk+j*bj]
	if transB {
		bk, bj = 1, b.Cols
	}
	cd, ld := c.Data, c.Cols
	for i := p0 * mr; i < min(p1*mr, m); i += 2 {
		i1 := min(i+1, m-1)
		for j := 0; j < n; j += 2 {
			if onlyLower && j > i1 {
				break // strictly above the diagonal: produced by mirroring
			}
			j1 := min(j+1, n-1)
			a0, a1, b0, b1 := i*ai, i1*ai, j*bj, j1*bj
			var c00, c01, c10, c11 float64
			for kk := 0; kk < k; kk++ {
				x0, x1, y0, y1 := ad[a0], ad[a1], bd[b0], bd[b1]
				c00 += x0 * y0
				c01 += x0 * y1
				c10 += x1 * y0
				c11 += x1 * y1
				a0, a1, b0, b1 = a0+ak, a1+ak, b0+bk, b1+bk
			}
			axpby(alpha, c00, beta, &cd[i*ld+j])
			if j1 > j {
				axpby(alpha, c01, beta, &cd[i*ld+j1])
			}
			if i1 > i {
				axpby(alpha, c10, beta, &cd[i1*ld+j])
				if j1 > j {
					axpby(alpha, c11, beta, &cd[i1*ld+j1])
				}
			}
		}
	}
}

// axpby is the write-back of one element: C = alpha·s + beta·C, where
// beta == 0 never reads C.
func axpby(alpha, s, beta float64, c *float64) {
	if beta == 0 {
		*c = alpha * s
	} else {
		*c = alpha*s + beta**c
	}
}

// gemmPanels runs the blocked kernel over row panels [p0, p1) against the
// packed op(B) buffer bp. onlyLower, when true, computes only the tiles on or
// below the diagonal and mirrors them — the symmetry-aware strength reduction
// for C = op(A)·op(A)ᵀ products (see GemmOp).
func gemmPanels(transA bool, alpha float64, a *Matrix, bp []float64, beta float64, c *Matrix, m, k, n, p0, p1 int, onlyLower bool) {
	apBuf := getPack(k * mr)
	defer putPack(apBuf)
	ap := *apBuf
	np := (n + nr - 1) / nr
	for pi := p0; pi < p1; pi++ {
		i0 := pi * mr
		packOpAPanel(transA, a, i0, m, k, ap)
		for jp := 0; jp < np; jp++ {
			j0 := jp * nr
			if onlyLower && j0 > i0+mr-1 {
				break // tiles strictly above the diagonal: produced by mirroring
			}
			microTile(ap, bp[jp*k*nr:], k, c, i0, j0, m, n, alpha, beta)
		}
	}
}

// mirrorLower fills the strict upper triangle of rows [r0, r1) of a square
// symmetric C from the lower triangle. For C = op(A)·op(A)ᵀ the mirrored
// element equals the directly computed one bit for bit: C[i,j] and C[j,i]
// accumulate the same products in the same k order.
func mirrorLower(c *Matrix, r0, r1 int) {
	n := c.Cols
	for i := r0; i < r1; i++ {
		for j := i + 1; j < n; j++ {
			c.Data[i*n+j] = c.Data[j*n+i]
		}
	}
}

// syrkCandidate reports whether the call computes op(A)·op(A)ᵀ into a square
// C — the pattern whose output is exactly symmetric, enabling half-compute.
func syrkCandidate(transA, transB bool, a, b *Matrix) bool {
	return a == b && transA != transB
}
