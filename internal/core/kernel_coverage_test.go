package core

import (
	"sort"
	"testing"

	"qframan/internal/dfpt"
	"qframan/internal/par"
	"qframan/internal/structure"
)

// wiredKernels is the roster of par regions the grid-mode pipeline is
// supposed to exercise. The benchmark harness reports per-kernel time from
// the same profile capture; a kernel listed here but recording zero chunks
// means a hot path silently stopped going through the pool (the PR 7 bench
// reported several kernels at 0s because sub-resolution times were rounded
// away — counting chunks is immune to that).
var wiredKernels = []string{
	"dot",
	"gemm_batch",
	"gemm_tn",
	"gemv_n",
	"grid_alpha_deriv",
	"grid_orbitals",
	"grid_pair_density",
	"grid_pair_operands",
	"grid_tabulate",
	"lanczos_density",
	"lanczos_vec",
	"poisson_boundary",
	"poisson_dst",
	"scf_forces",
	"spmv",
}

// TestEveryWiredKernelRecordsChunks runs the full grid-Coulomb pipeline
// under profile capture and asserts every wired kernel executed at least
// one chunk.
func TestEveryWiredKernelRecordsChunks(t *testing.T) {
	sys := structure.BuildWaterDimerSystem(1)
	cfg := DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
	cfg.Sched.NumLeaders = 1
	cfg.Sched.WorkersPerLeader = 1
	cfg.Sched.Job.DFPT.Coulomb = dfpt.GridCoulomb
	cfg.Sched.Job.DFPT.GridSpacing = 0.8
	cfg.Sched.Job.DFPT.GridMargin = 4.0

	prof := par.StartProfile()
	defer par.StopProfile()
	if _, err := ComputeRaman(sys, cfg); err != nil {
		t.Fatal(err)
	}
	par.StopProfile()

	chunks := prof.ChunksByKernel()
	var missing []string
	for _, k := range wiredKernels {
		if chunks[k] == 0 {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		var have []string
		for k, n := range chunks {
			if n > 0 {
				have = append(have, k)
			}
		}
		sort.Strings(have)
		t.Fatalf("wired kernels recorded zero chunks: %v (kernels that did run: %v)", missing, have)
	}
}
