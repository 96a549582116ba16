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

	// solveV1 is phase 3: the Poisson plan's Solve. A field so the package's
	// tests can run the same cycle against the CG reference.
	solveV1 func(rho, v []float64) error

	// n1 and gradN1 (∇n⁽¹⁾ along the field direction, a diagnostic) are
	// written only at points some batch owns — each exactly once per cycle —
	// and stay zero elsewhere; v1 is the Poisson output.
	n1, gradN1, v1 []float64

	// The phase-2 and phase-4 GEMM lists over the batch workspaces, planned
	// once. Only the naive phase-2 list depends on the field direction (its
	// second contraction reads ∇X along dir), so it is planned per direction;
	// the reduced kernels share one plan. ops receives the plans' counts.
	n1Plan           [3]*linalg.BatchPlan
	h1Plan           *linalg.BatchPlan
	ops              *linalg.Ops
	gemmsN1, gemmsH1 int64
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
		return nil, fmt.Errorf("dfpt: invalid grid options (GridSpacing %g, GridMargin %g, BatchSide %d)",
			opt.GridSpacing, opt.GridMargin, opt.BatchSide)
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
		ops:     m.Ops,
		solveV1: plan.Solve,
		n1:      make([]float64, g.NumPoints()),
		gradN1:  make([]float64, g.NumPoints()),
		v1:      make([]float64, g.NumPoints()),
	}
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
	n1, h1 := env.n1Calls(0), env.h1Calls()
	env.n1Plan[0], env.h1Plan = linalg.PlanBatch(n1), linalg.PlanBatch(h1)
	for dir := 1; dir < 3; dir++ {
		env.n1Plan[dir] = env.n1Plan[0]
		if !env.reduced {
			env.n1Plan[dir] = linalg.PlanBatch(env.n1Calls(dir))
		}
	}
	env.gemmsN1, env.flopsN1 = countCalls(n1)
	env.gemmsH1, env.flopsH1 = countCalls(h1)
	return env, nil
}

// GridCalls returns the phase-2 (n⁽¹⁾) and phase-4 (H⁽¹⁾) GEMM lists one
// grid DFPT cycle runs for the model's geometry. Their shapes are a function
// of geometry, basis and grid options alone — the same for every cycle and
// field direction — which is all a cost model needs; nothing is executed.
func GridCalls(m *scf.Model, opt Options) (n1, h1 []linalg.GemmCall, err error) {
	env, err := newGridEnv(m, opt)
	if err != nil {
		return nil, nil, err
	}
	return env.n1Calls(0), env.h1Calls(), nil
}

// countCalls returns the length and FLOP sum of a call list — what a phase
// adds to PhaseMetrics per cycle (skipped transpose pairs included: the
// metrics count the kernels' formulation, linalg.Ops what was executed).
func countCalls(calls []linalg.GemmCall) (gemms, flops int64) {
	for i := range calls {
		flops += calls[i].FLOPs()
	}
	return int64(len(calls)), flops
}

// n1Calls lays out phase 2 over the batch workspaces: X·P⁽¹⁾ per batch. The
// naive kernels ignore the symmetry of P⁽¹⁾ and compute the second
// contraction ∇X_dir·P⁽¹⁾ with its own GEMM per batch (Fig. 6(b)).
func (e *gridEnv) n1Calls(dir int) []linalg.GemmCall {
	calls := make([]linalg.GemmCall, 0, 2*len(e.batches))
	for bi := range e.batches {
		b := &e.batches[bi]
		calls = append(calls, linalg.GemmCall{Alpha: 1, A: b.x, B: b.p1loc, C: b.g1})
	}
	if !e.reduced {
		for bi := range e.batches {
			b := &e.batches[bi]
			calls = append(calls, linalg.GemmCall{Alpha: 1, A: b.gx[dir], B: b.p1loc, C: b.ng})
		}
	}
	return calls
}

// h1Calls lays out phase 4. Reduced (Fig. 6(a)): B = Xᵀ·V·(X/2 + ∇X_dir) per
// batch; the H⁽¹⁾ block is B + Bᵀ. Naive: Xᵀ(VX) + Xᵀ(V∇X) + (V∇X)ᵀX — three
// GEMMs. The third term is ∇Xᵀ·V·X written with V absorbed into ∇X, which
// makes it the literal operand-swapped transpose pair of the second call —
// the pattern the batch plan's §V-D strength reduction detects and replaces
// with a bit-exact copy.
func (e *gridEnv) h1Calls() []linalg.GemmCall {
	calls := make([]linalg.GemmCall, 0, 3*len(e.batches))
	for bi := range e.batches {
		b := &e.batches[bi]
		calls = append(calls, linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: b.y, C: b.bm})
		if !e.reduced {
			calls = append(calls,
				linalg.GemmCall{TransA: true, Alpha: 1, A: b.x, B: b.vgx, C: b.m2},
				linalg.GemmCall{TransA: true, Alpha: 1, A: b.vgx, B: b.x, C: b.m3})
		}
	}
	return calls
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
	met.GEMMsN1 += e.gemmsN1
	met.FLOPsN1 += e.flopsN1
	e.n1Plan[dir].Run(e.ops)
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
	met.GEMMsH1 += e.gemmsH1
	met.FLOPsH1 += e.flopsH1
	e.h1Plan.Run(e.ops)
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
