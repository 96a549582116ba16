package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"qframan/internal/linalg"
)

// FuzzGemmBatch drives the batch path with arbitrary batch compositions
// — mixed shapes (including ones straddling the micro-tile and 32-element
// boundaries), mixed trans flags, interleaved calls whose operands are an
// earlier call's swapped — and checks three invariants against a per-call
// direct Gemm oracle:
//
//  1. Bit-exactness: every C matches the unbatched result exactly, so
//     running calls as batch members never changes numerics.
//  2. Tile tails never leak: each C lives in the middle of a guarded backing
//     array whose sentinel lanes must survive untouched — a kernel that
//     wrote past a masked register-tile tail would trip them.
//  3. Mixed-shape submissions run rather than reject: the batch path
//     completes every call no matter how shapes are interleaved.
//
// A non-zero mismatch%4 instead corrupts one call (inner dimension, C rows
// or C columns) and checks the fourth invariant: the list is refused at plan
// time, by a panic on this goroutine, before any C byte changes. Bit 2 of
// mismatch keeps every dimension at most 12, so the whole batch sits below the
// direct/blocked kernel crossover.
func FuzzGemmBatch(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(0))
	f.Add(int64(7), uint8(8), uint8(0))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Add(int64(-99), uint8(12), uint8(0))
	f.Add(int64(5), uint8(6), uint8(1))
	f.Add(int64(5), uint8(6), uint8(2))
	f.Add(int64(5), uint8(6), uint8(3))
	f.Add(int64(11), uint8(10), uint8(4))
	f.Add(int64(-3), uint8(20), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nCalls uint8, mismatch uint8) {
		if nCalls == 0 || nCalls > 24 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		dim := func() int {
			if mismatch&4 != 0 {
				return 1 + rng.Intn(12)
			}
			// Bias toward micro-tile and 32-element boundaries.
			edges := []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 40, 64, 65}
			if rng.Intn(2) == 0 {
				return edges[rng.Intn(len(edges))]
			}
			return 1 + rng.Intn(70)
		}

		const guard = 8
		const sentinel = -12345.6789
		type guarded struct {
			backing []float64
			mat     *linalg.Matrix
		}
		newGuarded := func(rows, cols int) guarded {
			backing := make([]float64, rows*cols+2*guard)
			for i := 0; i < guard; i++ {
				backing[i] = sentinel
				backing[len(backing)-1-i] = sentinel
			}
			return guarded{backing: backing,
				mat: linalg.NewMatrixFrom(rows, cols, backing[guard:guard+rows*cols])}
		}
		fill := func(m *linalg.Matrix) {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}

		var calls []linalg.GemmCall
		var guards []guarded
		var oracle []*linalg.Matrix
		for ci := 0; ci < int(nCalls); ci++ {
			if len(calls) > 0 && rng.Intn(4) == 0 {
				// Inject the transpose of a random earlier call (its operands
				// swapped, C_new = C_srcᵀ), computed like any other call.
				src := calls[rng.Intn(len(calls))]
				g := newGuarded(src.C.Cols, src.C.Rows)
				calls = append(calls, linalg.GemmCall{
					TransA: !src.TransB, TransB: !src.TransA,
					Alpha: src.Alpha, A: src.B, B: src.A, C: g.mat,
				})
				guards = append(guards, g)
				continue
			}
			m, k, n := dim(), dim(), dim()
			transA := rng.Intn(2) == 0
			transB := rng.Intn(2) == 0
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			a := linalg.NewMatrix(ar, ac)
			b := linalg.NewMatrix(br, bc)
			fill(a)
			fill(b)
			g := newGuarded(m, n)
			calls = append(calls, linalg.GemmCall{
				TransA: transA, TransB: transB, Alpha: 1, A: a, B: b, C: g.mat,
			})
			guards = append(guards, g)
		}

		if kind := mismatch % 4; kind != 0 {
			// Corrupt one call by a dimension of one, pre-fill every C, and
			// demand a plan-time panic that leaves them untouched.
			c := &calls[rng.Intn(len(calls))]
			switch kind {
			case 1:
				if c.TransB {
					c.B = linalg.NewMatrix(c.B.Rows, c.B.Cols+1)
				} else {
					c.B = linalg.NewMatrix(c.B.Rows+1, c.B.Cols)
				}
			case 2:
				c.C = linalg.NewMatrix(c.C.Rows+1, c.C.Cols)
			case 3:
				c.C = linalg.NewMatrix(c.C.Rows, c.C.Cols+1)
			}
			before := make([][]float64, len(calls))
			for i := range calls {
				fill(calls[i].C)
				before[i] = append([]float64(nil), calls[i].C.Data...)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("mismatch kind %d: no panic at plan time", kind)
					}
				}()
				linalg.PlanBatch(calls)
			}()
			for i := range calls {
				for j, v := range calls[i].C.Data {
					if math.Float64bits(v) != math.Float64bits(before[i][j]) {
						t.Fatalf("mismatch kind %d: call %d C[%d] changed before the panic", kind, i, j)
					}
				}
			}
			return
		}

		// Oracle: every call — including injected pairs — via a direct Gemm
		// on a fresh C, no batching involved.
		for i := range calls {
			c := &calls[i]
			w := linalg.NewMatrix(c.C.Rows, c.C.Cols)
			linalg.Gemm(c.TransA, c.TransB, c.Alpha, c.A, c.B, 0, w)
			oracle = append(oracle, w)
		}

		linalg.PlanBatch(calls).Run()

		for i := range calls {
			got, want := calls[i].C.Data, oracle[i].Data
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("call %d: C[%d] = %g, direct Gemm %g", i, j, got[j], want[j])
				}
			}
		}
		for gi, g := range guards {
			for i := 0; i < guard; i++ {
				if g.backing[i] != sentinel || g.backing[len(g.backing)-1-i] != sentinel {
					t.Fatalf("call %d: guard lane clobbered — a tile tail leaked out of C", gi)
				}
			}
		}
	})
}
