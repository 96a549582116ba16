package dfpt

import (
	"fmt"
	"time"

	"qframan/internal/grid"
	"qframan/internal/linalg"
	"qframan/internal/par"
	"qframan/internal/poisson"
	"qframan/internal/scf"
)

// gridEnv holds the real-space machinery for one fragment geometry: the
// integration grid, its batches with per-batch tabulated basis values and
// gradients, the Poisson plan, and every workspace phases 2–4 write into.
// Building it once per geometry and reusing it across DFPT cycles and field
// directions mirrors the paper's setup/loop split: a cycle allocates no
// matrix, vector or call list of its own. One goroutine at a time.
type gridEnv struct {
	g       *grid.Grid
	batches []batchData
	// reduced selects the symmetry-aware kernels of §V-D (Fig. 6).
	reduced bool

	exec linalg.Executor
	// phased is exec when it wants to be told which pipeline phase the
	// upcoming GEMMs belong to (the elastic-offloading accel.BatchingExecutor).
	phased interface{ BeginPhase(string) }

	// solveV1 is phase 3: the Poisson plan's Solve. A field so the package's
	// tests can run the same cycle against the CG reference.
	solveV1 func(rho, v []float64) error

	// n1 and gradN1 (∇n⁽¹⁾ along the field direction, a diagnostic) are
	// written only at points some batch owns — each exactly once per cycle —
	// and stay zero elsewhere; v1 is the Poisson output.
	n1, gradN1, v1 []float64

	// The phase-2 and phase-4 call lists over the batch workspaces, built
	// once: only the naive phase-2 calls change between field directions
	// (their A operand is ∇X along dir).
	n1Calls, h1Calls []linalg.GemmCall
	flopsN1, flopsH1 int64
}

// batchData is one grid batch: the local basis tabulation X (points×nloc)
// and its Cartesian gradients, the index maps back to the global grid and
// basis, and the batch's per-cycle workspaces.
type batchData struct {
	indices []int // global grid point indices
	funcs   []int // global basis function indices
	x       *linalg.Matrix
	gx      [3]*linalg.Matrix

	p1loc *linalg.Matrix // nloc×nloc: the P⁽¹⁾ block of funcs
	g1    *linalg.Matrix // points×nloc: X·P⁽¹⁾
	y     *linalg.Matrix // points×nloc: V·(X/2 + ∇X); naive kernels: V·X
	bm    *linalg.Matrix // nloc×nloc: Xᵀ·y
	// Naive kernels only (nil when reduced): ∇X·P⁽¹⁾, V·∇X and the two
	// cross terms Xᵀ(V∇X), (V∇X)ᵀX.
	ng, vgx, m2, m3 *linalg.Matrix
}

func newGridEnv(m *scf.Model, opt Options) (*gridEnv, error) {
	if opt.GridSpacing <= 0 || opt.GridMargin <= 0 || opt.BatchSide <= 0 {
		return nil, fmt.Errorf("dfpt: invalid grid options %+v", opt)
	}
	g := grid.Cover(m.Pos, opt.GridMargin, opt.GridSpacing)
	plan, err := poisson.NewPlan(g)
	if err != nil {
		return nil, fmt.Errorf("dfpt: %w", err)
	}
	raw := g.Batches(opt.BatchSide, m.Basis)
	env := &gridEnv{
		g:       g,
		batches: make([]batchData, len(raw)),
		reduced: opt.StrengthReduction,
		exec:    opt.Executor,
		solveV1: plan.Solve,
		n1:      make([]float64, g.NumPoints()),
		gradN1:  make([]float64, g.NumPoints()),
		v1:      make([]float64, g.NumPoints()),
	}
	if env.exec == nil {
		env.exec = &linalg.HostExecutor{Ops: m.Ops}
	}
	env.phased, _ = env.exec.(interface{ BeginPhase(string) })
	// Tabulation is the expensive part of every displaced geometry's setup;
	// batches are independent (each writes only env.batches[bi]), so it
	// shards across the kernel pool.
	par.For("grid_tabulate", len(raw), 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := raw[bi]
			npts, nloc := len(b.Indices), len(b.Funcs)
			x := linalg.NewMatrix(npts, nloc)
			var gx [3]*linalg.Matrix
			for d := range gx {
				gx[d] = linalg.NewMatrix(npts, nloc)
			}
			for p, idx := range b.Indices {
				pt := g.Point(idx)
				for c, fi := range b.Funcs {
					f := &m.Basis.Funcs[fi]
					x.Set(p, c, f.ValueAt(pt))
					gr := f.GradAt(pt)
					gx[0].Set(p, c, gr.X)
					gx[1].Set(p, c, gr.Y)
					gx[2].Set(p, c, gr.Z)
				}
			}
			bd := batchData{
				indices: b.Indices, funcs: b.Funcs, x: x, gx: gx,
				p1loc: linalg.NewMatrix(nloc, nloc),
				g1:    linalg.NewMatrix(npts, nloc),
				y:     linalg.NewMatrix(npts, nloc),
				bm:    linalg.NewMatrix(nloc, nloc),
			}
			if !env.reduced {
				bd.ng = linalg.NewMatrix(npts, nloc)
				bd.vgx = linalg.NewMatrix(npts, nloc)
				bd.m2 = linalg.NewMatrix(nloc, nloc)
				bd.m3 = linalg.NewMatrix(nloc, nloc)
			}
			env.batches[bi] = bd
		}
	})
	env.buildCalls(m.Basis.Size())
	return env, nil
}

// buildCalls lays out the two GEMM call lists over the batch workspaces.
//
// Transfer model (paper §V-F, aggregated data transfer). Phase 2: P⁽¹⁾ is
// uploaded once per cycle and scattered on the device, X is resident, so
// each call carries its share of that upload plus its own reduced n⁽¹⁾
// values. Phase 4: each call uploads its batch's v⁽¹⁾ values; the H⁽¹⁾
// blocks accumulate on the device and come back as one aggregated matrix per
// cycle, whose share is charged per call.
func (e *gridEnv) buildCalls(nb int) {
	n := len(e.batches)
	share := 8 * int64(nb) * int64(nb) / int64(n)
	if e.reduced {
		e.n1Calls = make([]linalg.GemmCall, n)
		e.h1Calls = make([]linalg.GemmCall, n)
	} else {
		e.n1Calls = make([]linalg.GemmCall, 2*n)
		e.h1Calls = make([]linalg.GemmCall, 3*n)
	}
	for bi := range e.batches {
		b := &e.batches[bi]
		tb := share + 8*int64(b.x.Rows)
		e.n1Calls[bi] = linalg.GemmCall{Alpha: 1, A: b.x, B: b.p1loc, C: b.g1, TransferBytes: tb}
		if e.reduced {
			// Fig. 6(a): B = Xᵀ·V·(X/2 + ∇X_dir); H⁽¹⁾ block = B + Bᵀ.
			e.h1Calls[bi] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: b.y, C: b.bm, TransferBytes: tb}
			continue
		}
		// Naive ∇n⁽¹⁾ ignores the symmetry of P⁽¹⁾ and computes the second
		// contraction ∇X·P⁽¹⁾ with its own GEMM per batch (Fig. 6(b)); A is
		// set per field direction.
		e.n1Calls[n+bi] = linalg.GemmCall{Alpha: 1, A: b.gx[0], B: b.p1loc, C: b.ng, TransferBytes: tb}
		// Naive H⁽¹⁾: Xᵀ(VX) + Xᵀ(V∇X) + (V∇X)ᵀX — three GEMMs. The third
		// term is ∇Xᵀ·V·X written with V absorbed into ∇X, which makes it the
		// literal operand-swapped transpose pair of the second call — the
		// pattern the batch planner's §V-D strength reduction detects and
		// replaces with a bit-exact copy.
		e.h1Calls[3*bi] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: b.y, C: b.bm, TransferBytes: tb}
		e.h1Calls[3*bi+1] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: b.vgx, C: b.m2, TransferBytes: tb}
		e.h1Calls[3*bi+2] = linalg.GemmCall{TransA: true, Alpha: 1, A: b.vgx, B: b.x, C: b.m3, TransferBytes: tb}
	}
	for i := range e.n1Calls {
		e.flopsN1 += e.n1Calls[i].FLOPs()
	}
	for i := range e.h1Calls {
		e.flopsH1 += e.h1Calls[i].FLOPs()
	}
}

// gather copies the block p1[funcs×funcs] into the batch's p1loc.
func (b *batchData) gather(p1 *linalg.Matrix) {
	for i, fi := range b.funcs {
		row := b.p1loc.Row(i)
		src := p1.Row(fi)
		for j, fj := range b.funcs {
			row[j] = src[fj]
		}
	}
}

// addGridResponse runs phases 2–4 of the DFPT cycle for field direction dir:
// response density on the grid, Poisson solve, and the grid response
// Hamiltonian added into h1.
func (e *gridEnv) addGridResponse(p1, h1 *linalg.Matrix, dir int, met *PhaseMetrics) error {
	nb := len(e.batches)

	// ---- Phase 2: n⁽¹⁾(r) (and ∇n⁽¹⁾) by batched GEMMs. ----
	t0 := time.Now()
	// Per-batch gathers write only their batch's p1loc — sharded over batches.
	par.For("grid_gather", nb, 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			e.batches[bi].gather(p1)
		}
	})
	if !e.reduced {
		for bi := range e.batches {
			e.n1Calls[nb+bi].A = e.batches[bi].gx[dir]
		}
	}
	met.GEMMsN1 += int64(len(e.n1Calls))
	met.FLOPsN1 += e.flopsN1
	if e.phased != nil {
		e.phased.BeginPhase("n1")
	}
	e.exec.Execute(e.n1Calls)
	// Batches partition the grid, so their point scatters into n1/gradN1
	// touch disjoint indices — safe to shard over batches.
	par.For("grid_scatter", nb, 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			for p, idx := range b.indices {
				g1p := b.g1.Row(p)
				e.n1[idx] = linalg.Dot(g1p, b.x.Row(p))
				if e.reduced {
					// Symmetric P⁽¹⁾: ∇n⁽¹⁾ = 2·(X·P⁽¹⁾)∘∇X, no extra GEMM.
					e.gradN1[idx] = 2 * linalg.Dot(g1p, b.gx[dir].Row(p))
				} else {
					e.gradN1[idx] = linalg.Dot(g1p, b.gx[dir].Row(p)) +
						linalg.Dot(b.ng.Row(p), b.x.Row(p))
				}
			}
		}
	})
	// ∫∇n⁽¹⁾ d³r vanishes for a density that decays inside the box; the
	// accumulated value is exposed as a pipeline health diagnostic.
	w := e.g.Weight()
	for _, v := range e.gradN1 {
		met.GradN1Integral += v * w
	}
	met.TimeN1 += time.Since(t0)

	// ---- Phase 3: Poisson solve for the response potential. ----
	t0 = time.Now()
	if err := e.solveV1(e.n1, e.v1); err != nil {
		return fmt.Errorf("dfpt: response Poisson solve: %w", err)
	}
	met.TimeV1 += time.Since(t0)

	// ---- Phase 4: response Hamiltonian H⁽¹⁾ by batched GEMMs. ----
	t0 = time.Now()
	// Each batch scales its own right-hand operands by V = w·v⁽¹⁾ on its
	// points — sharded over batches like the density phase.
	par.For("grid_h1_build", nb, 1, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			b := &e.batches[bi]
			for p, idx := range b.indices {
				vp := w * e.v1[idx]
				xr, gr, yr := b.x.Row(p), b.gx[dir].Row(p), b.y.Row(p)
				if e.reduced {
					for c := range yr {
						yr[c] = vp * (0.5*xr[c] + gr[c])
					}
				} else {
					vgr := b.vgx.Row(p)
					for c := range yr {
						yr[c] = vp * xr[c]
						vgr[c] = vp * gr[c]
					}
				}
			}
		}
	})
	met.GEMMsH1 += int64(len(e.h1Calls))
	met.FLOPsH1 += e.flopsH1
	if e.phased != nil {
		e.phased.BeginPhase("h1")
	}
	e.exec.Execute(e.h1Calls)
	for bi := range e.batches {
		b := &e.batches[bi]
		for i, gi := range b.funcs {
			for j, gj := range b.funcs {
				var v float64
				if e.reduced {
					v = b.bm.At(i, j) + b.bm.At(j, i)
				} else {
					// bm symmetric + m2 + m3, where m3 = m2ᵀ bit for bit
					// (whether the planner skipped it or computed it).
					v = b.bm.At(i, j) + b.m2.At(i, j) + b.m3.At(i, j)
				}
				h1.Add(gi, gj, v)
			}
		}
	}
	met.TimeH1 += time.Since(t0)
	return nil
}
