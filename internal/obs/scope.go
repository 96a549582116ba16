package obs

import (
	"sync/atomic"
	"time"
)

// Phase enumerates the four DFPT phases of the paper (§V-A): the response
// density matrix P⁽¹⁾, the real-space response density n⁽¹⁾(r), the
// Poisson solve for v⁽¹⁾(r), and the response Hamiltonian H⁽¹⁾. The cycle
// executes them in the order n1, v1, h1, p1 (the Hamiltonian is built from
// the previous iterate's density before the new P⁽¹⁾ is formed).
type Phase int

const (
	PhaseP1 Phase = iota
	PhaseN1
	PhaseV1
	PhaseH1
	NumPhases
)

// PhaseNames are the span and metric names of the phases, indexed by Phase.
var PhaseNames = [NumPhases]string{"p1", "n1", "v1", "h1"}

// Metric names recorded by the instrumented runtime (see DESIGN.md §6).
const (
	MetricFragmentSeconds = "sched_fragment_seconds"
	MetricQueueDepth      = "sched_queue_depth"
	MetricRetries         = "sched_retries_total"
	MetricRequeues        = "sched_requeues_total"
	MetricPanics          = "sched_panics_total"
	MetricCacheHits       = "sched_cache_hits_total"
	MetricCacheMisses     = "sched_cache_misses_total"
	MetricStoreGetSeconds = "store_get_seconds"
	MetricStorePutSeconds = "store_put_seconds"
	MetricStoreReplayRecs = "store_replay_records_total"
	MetricSCFIterations   = "scf_iterations"
	MetricSCFSolves       = "scf_solves_total"
	MetricDFPTCycles      = "dfpt_cycles_total"

	// Group commit (store.Store): fsyncs of segment files, and the records
	// they made durable; their ratio is the records committed per fsync.
	MetricStoreFsyncs           = "store_fsyncs_total"
	MetricStoreRecordsCommitted = "store_records_committed_total"
	// Ladder escalations — a solve that only converged on a later rung is a
	// degraded number, so each rung taken beyond the first is counted: one
	// per smearing rung above the requested temperature (the fragment
	// engine's hessian.ComputeFragment, and scf.Model.SolveSCFRobust).
	MetricSCFSmearingEscalations = "scf_smearing_escalations_total"
	// A Newton fallback is a charge loop that left its Newton steps for the
	// Pulay mixer (scf.Workspace) because the residual failed to decrease,
	// a pivot vanished or a step was not finite: the closed-form Jacobian did
	// not describe the charge map where the iterate stood.
	MetricSCFNewtonFallbacks = "scf_newton_fallbacks_total"
	// A finite-difference derivative fragment is one whose dipole and
	// polarizability derivatives came from its 6N displaced solves
	// (grid mode, a fractional ground state) instead of the reference's field
	// responses (hessian.ComputeFragment): how much traffic the analytic path
	// does not serve.
	MetricHessianFDDerivativeFragments = "hessian_fd_derivative_fragments_total"
	// A displaced job is one SCF (and, for finite-difference ∂α, DFPT) solve
	// at a displaced geometry (hessian.RunDisplacement): 6N per fragment that
	// runs the displacement loop, none on the analytic route.
	MetricHessianDisplacedJobs = "hessian_displaced_jobs_total"
	// Spectral-solver counts, one RecordLanczos per spectrum: recurrence
	// steps taken over all start vectors, recurrences that stopped on
	// β-breakdown, start vectors skipped as numerically zero, and steps that
	// ran a Gram–Schmidt sweep because the ω-recurrence said orthogonality
	// was lost.
	MetricLanczosSteps      = "lanczos_steps_total"
	MetricLanczosEarlyStops = "lanczos_early_stops_total"
	MetricLanczosSkipped    = "lanczos_skipped_starts_total"
	MetricLanczosReorths    = "lanczos_reorth_steps_total"
	// A spectrum solved on the exact route — a Hessian with no more
	// coordinates than Lanczos steps, diagonalized once instead of running
	// recurrences (raman.LanczosSpectrum) — counts here and moves none of
	// the lanczos_* counters.
	MetricSpectrumExact = "spectrum_exact_total"
	// Kernel-pool metrics recorded by internal/par (see DESIGN.md §7).
	MetricParJobs        = "par_jobs_total"
	MetricParInline      = "par_inline_total"
	MetricParWorkersBusy = "par_workers_busy"
	MetricParJobWidth    = "par_job_width"
	// Distributed-runtime metrics recorded by internal/cluster (see
	// DESIGN.md §9). The per-worker and per-RPC series derive from these
	// via Registry.WithLabel ({worker="..."} / {rpc="..."}).
	MetricClusterWorkers      = "cluster_workers_connected"
	MetricClusterLeases       = "cluster_leases_total"
	MetricClusterReassigns    = "cluster_lease_reassigns_total"
	MetricClusterDupResults   = "cluster_duplicate_results_total"
	MetricClusterFrameErrors  = "cluster_frame_errors_total"
	MetricClusterBytesIn      = "cluster_rpc_in_bytes_total"
	MetricClusterBytesOut     = "cluster_rpc_out_bytes_total"
	MetricClusterFrames       = "cluster_rpc_frames_total"
	MetricClusterLocalHits    = "cluster_cache_local_hits_total"
	MetricClusterCoordHits    = "cluster_cache_coord_hits_total"
	MetricClusterFetchHits    = "cluster_cache_fetch_hits_total"
	MetricClusterRecomputes   = "cluster_cache_recomputes_total"
	MetricClusterTaskFails    = "cluster_task_failures_total"
	MetricClusterWorkerFrags  = "cluster_worker_fragments_total"
	MetricClusterLeaseSeconds = "cluster_lease_seconds"
	// Trajectory-engine metrics recorded by internal/traj (see DESIGN.md
	// §10): per-frame diff classification counts, engine recomputes,
	// warm-started references, and frame wall time.
	MetricTrajFrames       = "traj_frames_total"
	MetricTrajMoved        = "traj_moved_total"
	MetricTrajRotated      = "traj_rotated_total"
	MetricTrajReused       = "traj_reused_total"
	MetricTrajRecomputed   = "traj_recomputed_total"
	MetricTrajWarmStarts   = "traj_warm_starts_total"
	MetricTrajFrameSeconds = "traj_frame_seconds"
	// Per-phase duration histograms: dfpt_phase_<name>_seconds.
	metricPhasePrefix = "dfpt_phase_"
	metricPhaseSuffix = "_seconds"
	// Per-kernel shard-drain histograms: par_shard_<kernel>_seconds.
	metricShardPrefix = "par_shard_"
)

// ParShardMetricName returns the drain-duration histogram name of one
// named kernel of the par pool.
func ParShardMetricName(kernel string) string {
	return metricShardPrefix + kernel + metricPhaseSuffix
}

// PhaseMetricName returns the histogram name of one DFPT phase.
func PhaseMetricName(p Phase) string {
	return metricPhasePrefix + PhaseNames[p] + metricPhaseSuffix
}

// Hot holds pre-resolved instruments for the per-cycle and per-solve hot
// paths, so instrumented inner loops never take the registry's map lock.
// PhaseTime histograms observe per-solve phase totals (one sample per DFPT
// direction); exact per-cycle phase distributions come from the
// trace spans via AnalyzeTrace.
type Hot struct {
	PhaseTime  [NumPhases]*Histogram
	DFPTCycles *Counter
	SCFIters   *Histogram
	SCFSolves  *Counter

	SCFSmearingEscalations *Counter
	SCFNewtonFallbacks     *Counter

	HessianFDDerivativeFragments *Counter
	HessianDisplacedJobs         *Counter
}

func newHot(r *Registry) *Hot {
	if r == nil {
		return nil
	}
	h := &Hot{
		DFPTCycles: r.Counter(MetricDFPTCycles),
		SCFIters:   r.Histogram(MetricSCFIterations, CountBuckets),
		SCFSolves:  r.Counter(MetricSCFSolves),

		SCFSmearingEscalations: r.Counter(MetricSCFSmearingEscalations),
		SCFNewtonFallbacks:     r.Counter(MetricSCFNewtonFallbacks),

		HessianFDDerivativeFragments: r.Counter(MetricHessianFDDerivativeFragments),
		HessianDisplacedJobs:         r.Counter(MetricHessianDisplacedJobs),
	}
	for p := Phase(0); p < NumPhases; p++ {
		h.PhaseTime[p] = r.Histogram(PhaseMetricName(p), DurationBuckets)
	}
	return h
}

// FragStats accumulates one fragment's engine-side cost. The scheduler
// allocates one per fragment and threads a pointer down through the Scope;
// concurrent workers of one leader add to it, so all fields are atomic.
type FragStats struct {
	phaseNS [NumPhases]atomic.Int64
	cycles  atomic.Int64
	scfIter atomic.Int64
}

// AddPhase accumulates one phase duration. Nil-safe.
func (fs *FragStats) AddPhase(p Phase, d time.Duration) {
	if fs != nil {
		fs.phaseNS[p].Add(int64(d))
	}
}

// AddCycles counts a batch of completed DFPT cycles. Nil-safe.
func (fs *FragStats) AddCycles(n int) {
	if fs != nil {
		fs.cycles.Add(int64(n))
	}
}

// AddSCFIters accumulates SCF iterations. Nil-safe.
func (fs *FragStats) AddSCFIters(n int) {
	if fs != nil {
		fs.scfIter.Add(int64(n))
	}
}

// PhaseTotals returns the per-phase duration sums.
func (fs *FragStats) PhaseTotals() [NumPhases]time.Duration {
	var out [NumPhases]time.Duration
	if fs != nil {
		for p := range out {
			out[p] = time.Duration(fs.phaseNS[p].Load())
		}
	}
	return out
}

// Cycles returns the DFPT cycle count.
func (fs *FragStats) Cycles() int64 {
	if fs == nil {
		return 0
	}
	return fs.cycles.Load()
}

// SCFIters returns the accumulated SCF iteration count.
func (fs *FragStats) SCFIters() int64 {
	if fs == nil {
		return 0
	}
	return fs.scfIter.Load()
}

// Scope carries the observability handles through the engine layers: the
// tracer and registry to record into, the parent span for new spans, the
// track (trace lane) of the executing worker, and the per-fragment stats
// accumulator. Scopes are small values copied freely down the call tree;
// the zero Scope disables every site it reaches.
type Scope struct {
	T     *Tracer
	R     *Registry
	Hot   *Hot
	FS    *FragStats
	Span  *Span
	Track int32
}

// NewScope builds the root scope over a tracer and/or registry (either may
// be nil).
func NewScope(t *Tracer, r *Registry) Scope {
	return Scope{T: t, R: r, Hot: newHot(r)}
}

// Enabled reports whether any instrumentation sink is attached.
func (s Scope) Enabled() bool { return s.T != nil || s.R != nil }

// Tracing reports whether spans are being recorded.
func (s Scope) Tracing() bool { return s.T != nil }

// Begin opens a child span and returns the derived scope (with the new span
// as parent) plus the span itself.
func (s Scope) Begin(name, cat string, args ...Arg) (Scope, *Span) {
	sp := s.T.BeginOn(s.Track, s.Span, name, cat, args...)
	s.Span = sp
	return s, sp
}

// WithSpan re-parents the scope under an existing span.
func (s Scope) WithSpan(sp *Span) Scope {
	s.Span = sp
	return s
}

// WithFrag attaches a fragment-stats accumulator.
func (s Scope) WithFrag(fs *FragStats) Scope {
	s.FS = fs
	return s
}

// WithTrack moves the scope (and spans begun from it) to a trace lane.
func (s Scope) WithTrack(track int32) Scope {
	s.Track = track
	return s
}

// RecordSCF records one SCF solve: a span carrying the iteration count, the
// electron counts its Fermi-level searches evaluated and how many of the
// iterations ended in a Newton step, the iteration histogram, and the
// fragment accumulator.
func (s Scope) RecordSCF(start time.Time, iters, fermiEvals, newtonSteps int) {
	if s.T != nil {
		s.T.Record(s.Span.ID(), s.Track, "scf", "scf",
			s.T.Since(start), time.Since(start),
			A("iters", int64(iters)), A("fermi_evals", int64(fermiEvals)),
			A("newton_steps", int64(newtonSteps)))
	}
	if s.Hot != nil {
		s.Hot.SCFIters.Observe(float64(iters))
		s.Hot.SCFSolves.Inc()
	}
	s.FS.AddSCFIters(iters)
}

// cycleArgs are the arguments of every cycle span, shared read-only so that
// recording one allocates no argument list.
var cycleArgs = []Arg{{Key: "iter", Val: 1}}

// RecordDFPTCycle records one DFPT cycle: a "dfpt.cycle" span (iter 1) of
// length total starting at base, with exactly four phase children that tile
// it in execution order (n1, v1, h1, p1) and last durs; the phase histograms
// observe durs, and the fragment accumulator gains them plus the cycle.
func (s Scope) RecordDFPTCycle(base time.Time, durs [NumPhases]time.Duration, total time.Duration) {
	if s.Hot != nil {
		for p := Phase(0); p < NumPhases; p++ {
			s.Hot.PhaseTime[p].Observe(durs[p].Seconds())
		}
		s.Hot.DFPTCycles.Inc()
	}
	if s.FS != nil {
		for p := Phase(0); p < NumPhases; p++ {
			s.FS.AddPhase(p, durs[p])
		}
		s.FS.AddCycles(1)
	}
	if s.T == nil {
		return
	}
	at := s.T.Since(base)
	cyc := s.T.Record(s.Span.ID(), s.Track, "dfpt.cycle", "dfpt", at, total, cycleArgs...)
	for _, p := range [NumPhases]Phase{PhaseN1, PhaseV1, PhaseH1, PhaseP1} {
		s.T.Record(cyc, s.Track, PhaseNames[p], "phase", at, durs[p])
		at += durs[p]
	}
}

// Values of the "route" argument of a spectrum span: which solver produced
// the spectrum.
const (
	SpectrumRouteLanczos = 0 // K-step Lanczos recurrences and their quadrature
	SpectrumRouteExact   = 1 // one dense eigendecomposition of a Hessian of ≤ K coordinates
)

// RecordLanczos records what one spectral solve on the Lanczos route did —
// as counters, and as arguments of the scope's span (the caller's
// "spectrum" span).
func (s Scope) RecordLanczos(steps, earlyStops, skippedStarts, reorths int) {
	s.Span.SetArg("route", SpectrumRouteLanczos)
	s.R.Counter(MetricLanczosSteps).Add(int64(steps))
	s.R.Counter(MetricLanczosEarlyStops).Add(int64(earlyStops))
	s.R.Counter(MetricLanczosSkipped).Add(int64(skippedStarts))
	s.R.Counter(MetricLanczosReorths).Add(int64(reorths))
	s.Span.SetArg("lanczos_steps", int64(steps))
	s.Span.SetArg("lanczos_early_stops", int64(earlyStops))
	s.Span.SetArg("lanczos_skipped_starts", int64(skippedStarts))
	s.Span.SetArg("lanczos_reorths", int64(reorths))
}

// RecordExactSpectrum records one spectrum solved on the exact route: the
// spectrum_exact_total counter, and the route argument of the scope's span.
func (s Scope) RecordExactSpectrum() {
	s.R.Counter(MetricSpectrumExact).Inc()
	s.Span.SetArg("route", SpectrumRouteExact)
}
