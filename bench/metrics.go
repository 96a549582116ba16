package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef is one row of the metric dictionary. The end-to-end and
// per-layer tables below are the single source of the names; BENCHMARK.json
// and README.md repeat them (tests keep all three in step) and every run
// prints exactly these, so a name means the same thing in every result file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, the same names on
// every workload. Bound is the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	// median wall seconds from structure in hand to Raman spectrum returned,
	// per delivered spectrum
	{"spectrum_s", "s", "lower", 0.25},
	// process user+sys CPU seconds per delivered spectrum over the timed
	// window (getrusage delta)
	{"cpu_s", "s", "lower", 0.25},
	// median of three set-ups: input generation, service start, store
	// population, one untimed warm-up repetition
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced-pass metrics; module names are the layer names.
// A metric a workload does not exercise reads 0 there — that zero is the
// recorded prediction (e.g. poisson.* on the γ-mode workloads).
var perLayer = []metricDef{
	{Name: "fragment.partition_s", Unit: "s", Better: "lower"},       // QFPartitioner.Partition on the reference system (direct call)
	{Name: "fragment.count", Unit: "count", Better: "lower"},         // Eq. 1 fragments per spectrum
	{Name: "fragment.graph_partition_s", Unit: "s", Better: "lower"}, // GraphPartitioner.Partition on a 2×4 PEG melt, partition only
	{Name: "sched.run_s", Unit: "s", Better: "lower"},                // sched.Run (or traj.Engine.Step / served job run) wall per spectrum
	{Name: "sched.busy_s", Unit: "s", Better: "lower"},               // Σ wall inside the Process wrapper per spectrum
	{Name: "sched.idle_frac", Unit: "%", Better: "lower"},            // 1 − busy ÷ (run × fragment slots), in percent
	{Name: "sched.tasks", Unit: "count", Better: "lower"},            // Report.NumTasks per spectrum
	{Name: "sched.retries", Unit: "count", Better: "lower"},          // Report.Retries per spectrum
	{Name: "sched.deduped", Unit: "count", Better: "higher"},         // Report.Deduped per spectrum
	{Name: "scf.solve_s", Unit: "s", Better: "lower"},                // SolveSCFRobust wall, Σ over the microscope's fragments
	{Name: "scf.iters", Unit: "count", Better: "lower"},              // SCF iterations, Σ over the microscope's fragments
	{Name: "hessian.displacement_s", Unit: "s", Better: "lower"},     // one warm-started RunDisplacement, Σ over the microscope's fragments
	{Name: "dfpt.p1_s", Unit: "s", Better: "lower"},                  // Response.Metrics.TimeP1 of the reference polarizability, Σ microscope
	{Name: "dfpt.n1_s", Unit: "s", Better: "lower"},                  // …TimeN1
	{Name: "dfpt.v1_s", Unit: "s", Better: "lower"},                  // …TimeV1
	{Name: "dfpt.h1_s", Unit: "s", Better: "lower"},                  // …TimeH1
	{Name: "dfpt.cycles", Unit: "count", Better: "lower"},            // Response.Cycles, Σ microscope
	{Name: "dfpt.gemms", Unit: "count", Better: "lower"},             // GEMMsN1+GEMMsH1, Σ microscope
	{Name: "dfpt.flops", Unit: "count", Better: "lower"},             // FLOPsN1+FLOPsH1 (counted by the program, not timed), Σ microscope
	{Name: "poisson.solve_s", Unit: "s", Better: "lower"},            // poisson.Solve on each microscope fragment's own grid.Cover grid (grid-mode workloads only)
	{Name: "poisson.iters", Unit: "count", Better: "lower"},          // CG iterations of those solves
	{Name: "poisson.points", Unit: "count", Better: "lower"},         // grid points of those solves
	{Name: "par.kernel_s.total", Unit: "s", Better: "lower"},         // Σ par chunk seconds per spectrum under par.StartProfile (kernels serialised: computed-serial)
	{Name: "par.kernel_s.linalg", Unit: "s", Better: "lower"},        // … gemm_*, gemv_*, dot
	{Name: "par.kernel_s.poisson", Unit: "s", Better: "lower"},       // … poisson_*
	{Name: "par.kernel_s.grid", Unit: "s", Better: "lower"},          // … grid_*
	{Name: "par.kernel_s.lanczos", Unit: "s", Better: "lower"},       // … lanczos_*, spmv
	{Name: "par.kernel_s.other", Unit: "s", Better: "lower"},         // … every other kernel name
	{Name: "par.chunks", Unit: "count", Better: "lower"},             // par chunks per spectrum in the profiled repetition
	{Name: "par.poisson_share", Unit: "%", Better: "lower"},          // poisson ÷ total kernel seconds, in percent
	{Name: "linalg.batch_submits", Unit: "count", Better: "lower"},   // GemmBatchStats().Submits delta over the traced repetitions
	{Name: "linalg.batch_flushes", Unit: "count", Better: "lower"},   // …Flushes
	{Name: "linalg.batch_merged", Unit: "count", Better: "higher"},   // …Merged (flushes that combined ≥ 2 submissions)
	{Name: "store.fingerprint_s", Unit: "s", Better: "lower"},        // store.Fingerprint over every fragment of one decomposition
	{Name: "store.get_s", Unit: "s", Better: "lower"},                // Store.Get (+ back-rotation) over every fragment of one decomposition
	{Name: "store.put_s", Unit: "s", Better: "lower"},                // Store.Put of every distinct record into a scratch store
	{Name: "store.bytes", Unit: "count", Better: "lower"},            // Stats().Bytes of the workload's store
	{Name: "store.hit_ratio", Unit: "%", Better: "higher"},           // cache hits ÷ (hits + misses) over the traced repetitions, in percent
	{Name: "hessian.assemble_s", Unit: "s", Better: "lower"},         // hessian.AssembleDegraded wall per spectrum (span, or direct call on the store's records)
	{Name: "raman.solve_s", Unit: "s", Better: "lower"},              // raman.LanczosSpectrum wall per spectrum (span, or direct call)
	{Name: "lanczos.k", Unit: "count", Better: "lower"},              // Lanczos steps requested
	{Name: "traj.reused", Unit: "count", Better: "higher"},           // FrameReport.Reused per frame
	{Name: "traj.rotated", Unit: "count", Better: "higher"},          // FrameReport.Rotated per frame
	{Name: "traj.recomputed", Unit: "count", Better: "lower"},        // FrameReport.Recomputed per frame
	{Name: "traj.warm_started", Unit: "count", Better: "higher"},     // FrameReport.WarmStarted per frame
	{Name: "traj.ref_iters", Unit: "count", Better: "lower"},         // FrameReport.RefIters per frame
	{Name: "traj.extra_recomputes", Unit: "count", Better: "lower"},  // recomputes beyond the frame's new content keys, per frame
	{Name: "serve.wait_s", Unit: "s", Better: "lower"},               // Status.WaitSeconds per job
	{Name: "serve.run_s", Unit: "s", Better: "lower"},                // Status.RunSeconds per job
	{Name: "serve.cross_job_hits", Unit: "count", Better: "higher"},  // ReportSummary.CrossJobHits per job
	{Name: "serve.submit_rtt_s", Unit: "s", Better: "lower"},         // POST /jobs round trip per job (span)
	{Name: "cluster.rpc_bytes_in", Unit: "count", Better: "lower"},   // coordinator-side transport bytes in per spectrum
	{Name: "cluster.rpc_bytes_out", Unit: "count", Better: "lower"},  // coordinator-side transport bytes out per spectrum
	{Name: "cluster.tier_hits", Unit: "count", Better: "higher"},     // coord + local + fetch tier hits per spectrum (Snapshot)
	{Name: "cluster.recomputes", Unit: "count", Better: "lower"},     // Snapshot.Recomputes per spectrum
	{Name: "cluster.reassigns", Unit: "count", Better: "lower"},      // Snapshot.Reassigns per spectrum
	{Name: "cluster.overhead_s", Unit: "s", Better: "lower"},         // cluster wall − the same system in-process with a store
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},          // VmHWM of the traced pass's process (two instances alive), before the microscope
	{Name: "proc.heap_live_mb", Unit: "MB", Better: "lower"},         // Go heap reachable after the traced repetitions (two forced collections, both instances alive)
	{Name: "trace.overhead_s", Unit: "s", Better: "lower"},           // traced − untraced median wall per spectrum
	{Name: "trace.spans", Unit: "count", Better: "lower"},            // spans recorded per spectrum
}

// median returns the middle value (mean of the two middle values for even
// n); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method, which
// extrapolates past the extremes for very small samples); it needs two
// samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, false
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	const n = 4
	cut := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3), true
}

// tailPercentiles are the candidates of the "highest percentile with at
// least ten samples beyond it" rule, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest of tailPercentiles that still has ten
// samples above it, and its value (nearest-rank). ok is false when even the
// lowest candidate has fewer than ten samples beyond it.
func tailPercentile(xs []float64) (p, value float64, ok bool) {
	n := len(xs)
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 1-based nearest rank
		if rank >= 1 && n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// rusage is one reading of the process's own resource use.
type rusage struct {
	cpuS      float64 // user + sys seconds (getrusage)
	peakRSSMB float64
}

func readRusage() rusage {
	var out rusage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		out.cpuS = tv(ru.Utime) + tv(ru.Stime)
		out.peakRSSMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	// ru_maxrss survives execve: started by `go run`, it would report the
	// go command's own peak (≈ 25 MB) as a floor. VmHWM is the high-water
	// mark of this process image alone; ru_maxrss stays the fallback where
	// /proc is absent.
	if hwm, ok := vmHWMMB(); ok {
		out.peakRSSMB = hwm
	}
	return out
}

// vmHWMMB reads VmHWM (peak resident set, kB) from /proc/self/status.
func vmHWMMB() (float64, bool) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, true
				}
			}
		}
	}
	return 0, false
}
