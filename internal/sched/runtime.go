// Package sched implements the paper's master–leader runtime (§V-A, Fig. 3)
// over content classes: the master hands out one class representative per
// pull — retries and promotions first, then fresh representatives largest
// first (the size order of the paper's load balancer, §V-B, Fig. 4) — and
// each leader runs that fragment through the fragment engine
// (hessian.ComputeFragment) or finds its record in a store; every class
// member gets that one canonical record in its own frame. The paper's third
// level, workers that split one fragment's displacement jobs, is here the par
// kernel budget the engine's kernels draw on. The straggler rule of Fig. 4(a)
// — mark a fragment un-processed again, keep the first result — lives where
// a worker can be lost: internal/cluster's lease timeout. In-process, a
// leader's slow attempt holds up Run's return however the fragment is
// re-dispatched.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/store"
)

// Options configures the goroutine runtime.
type Options struct {
	NumLeaders int
	Job        hessian.JobOptions
	// Retry bounds per-fragment retries of transient failures (injected
	// chaos, recovered panics, NaN-poisoned results) with exponential
	// backoff. Deterministic failures — the engine's own convergence
	// errors after every smearing rung — are never retried: they reproduce.
	Retry faults.RetryPolicy
	// MaxFailedFragments is the fail-soft budget K: a run may complete
	// "degraded" with up to K deterministically-failed fragments, whose
	// signed Eq. 1 terms the assembly then drops (Report.Failed lists
	// them). Zero keeps the strict behavior: any unrecoverable fragment
	// aborts the run.
	MaxFailedFragments int
	// Injector, when non-nil, is consulted before every processing attempt
	// and may fail it, poison its result with NaNs, or panic — the
	// chaos-testing hook (see internal/faults).
	Injector faults.Injector
	// Process overrides the fragment engine (hessian.ComputeFragment's model
	// build and solves). Tests and custom engines use it; nil selects
	// the built-in SCF+DFPT pipeline (DefaultProcess).
	Process ProcessFunc
	// WarmStart, when non-nil, supplies an initial per-atom charge guess
	// for a fragment's reference SCF — the trajectory engine seeds a moved
	// fragment with the converged charges of its own previous frame (per-
	// atom scalars are rotation-invariant, so the seed survives rigid
	// motion). A nil or wrong-length return falls back to the cold start.
	// Seeding is keyed by fragment *identity*, never by content hash: it
	// changes the iteration path, not the fingerprint, so warm-started
	// results converge to the same answer within the SCF tolerance but are
	// not guaranteed bit-identical to cold ones (the -traj-warm=0 escape
	// hatch restores strict bit-identity).
	WarmStart func(f *fragment.Fragment) []float64
	// OnReference, when non-nil, observes each computed fragment's
	// converged reference SCF: its charges (the next frame's warm seed) and
	// iteration count (the warm-start accounting). Called from leader
	// goroutines — implementations must be safe for concurrent use.
	OnReference func(f *fragment.Fragment, deltaQ []float64, iters int)
	// Cancel, when non-nil, is the job-scoped run handle of a serving
	// frontend: closing it aborts the run. Leaders stop taking work,
	// in-flight attempts finish (and their checkpoints still land, so
	// another job sharing the store can take over their keys), and Run
	// returns an error wrapping ErrCancelled. A run whose fragments all
	// resolved before the close is a normal completion.
	Cancel <-chan struct{}
	// Cache attaches the persistent fragment-result store: one lookup per
	// content class and one checkpoint per computed record.
	Cache CacheOptions
	// Obs carries the observability sinks (span tracer, metrics registry).
	// The runtime records run/frag/attempt spans and dispatch and cache
	// metrics; the scope is threaded down to the SCF/DFPT engine for
	// per-phase spans. The straggler table is obs.AnalyzeTrace over those
	// spans. The zero Scope disables all of it.
	Obs obs.Scope
	// Backend, when non-nil, replaces the in-process leader fan-out
	// with a pluggable dispatch backend that resolves Run's content
	// classes. internal/cluster.Client implements this to fan
	// representatives out to remote worker daemons over the wire (qframan
	// -cluster), whose coordinator runs the straggler rule through its
	// lease timeout. In-process options that configure the goroutine
	// runtime (NumLeaders, Retry, Injector, MaxFailedFragments, Cache) do
	// not apply, while Job, Cancel, and Obs are honored by every backend.
	Backend Backend
}

// Backend is a pluggable dispatch backend at class level. Run classifies the
// decomposition and hands it the classes; the backend hands back, for each
// class c, the canonical record of representative cls.Reps[c] and where it
// came from, through one resolve call per class on the goroutine that called
// Run, as the records arrive, and returns its straggler requeues. resolve
// expands the record to the members and counts them exactly as for Run's
// own leaders while the backend waits for the next record; its error ends
// the run. Implementations must preserve the determinism contract — the
// engine's canonical record, bit for bit — and honor Options.Cancel.
type Backend interface {
	Run(dec *fragment.Decomposition, cls *store.Classes, opt Options, resolve Resolve) (requeues int, err error)
}

// Resolve is the hand-back of a Backend: class c's canonical record and
// where it came from.
type Resolve func(c int, canon *hessian.FragmentData, src Source) error

// Source says where a content class's canonical record came from.
type Source uint8

const (
	// Unresolved: no record; the class's fragments failed under the
	// fail-soft budget.
	Unresolved Source = iota
	// Computed: this run ran the engine for it.
	Computed
	// Stored: a store record this run did not compute (an earlier run's,
	// another job's, or a cluster cache tier's).
	Stored
)

// ProcessFunc is the fragment-engine signature of Options.Process.
type ProcessFunc func(f *fragment.Fragment, opt Options) (*hessian.FragmentData, error)

// ErrCancelled is wrapped into Run's error when Options.Cancel closes
// before every fragment resolves; errors.Is(err, ErrCancelled) identifies a
// cancelled job.
var ErrCancelled = errors.New("sched: run cancelled")

// DefaultProcess is the built-in SCF+DFPT fragment engine — what runs when
// Options.Process is nil. Serving wrappers (admission gates, cancellation
// probes) delegate to it after their own bookkeeping.
//
// It is the adapter between the runtime's options and hessian.ComputeFragment:
// a trajectory warm seed (Options.WarmStart — the previous frame's converged
// charges for this fragment identity) starts the reference SCF closer to its
// fixed point, a wrong-length seed is ignored rather than failing the
// fragment, and the converged reference is reported to Options.OnReference.
func DefaultProcess(f *fragment.Fragment, opt Options) (*hessian.FragmentData, error) {
	job := opt.Job
	if opt.WarmStart != nil {
		if seed := opt.WarmStart(f); len(seed) == f.NumAtoms() {
			job.SCF.InitDeltaQ = seed
		}
	}
	data, ref, err := hessian.ComputeFragment(f, job)
	if err == nil && opt.OnReference != nil {
		opt.OnReference(f, ref.DeltaQ, ref.Iterations)
	}
	return data, err
}

// Compute runs the fragment engine (Options.Process, or DefaultProcess when
// nil) once under the guard every computed result passes, in-process or on
// a cluster worker: a panic is recovered as a transient *faults.PanicError,
// and a result with a NaN or Inf entry is rejected before anything can
// checkpoint, ship or assemble it.
func Compute(f *fragment.Fragment, opt Options) (data *hessian.FragmentData, err error) {
	defer func() {
		if r := recover(); r != nil {
			data, err = nil, faults.Recovered(r)
		}
	}()
	process := opt.Process
	if process == nil {
		process = DefaultProcess
	}
	if data, err = process(f, opt); err != nil {
		return nil, err
	}
	if err := data.Validate(); err != nil {
		return nil, fmt.Errorf("sched: fragment %d result rejected: %w", f.ID, err)
	}
	return data, nil
}

// CacheOptions configures the runtime's use of a checkpoint store: it gives
// persistence and resume. Classes share one computation within a run with
// or without it, and the bits do not depend on it.
type CacheOptions struct {
	// Store is the open store; nil keeps records in memory only.
	Store *store.Store
	// Resume serves records that predate the store's opening. Without it
	// the store serves only records this process wrote (an earlier job or
	// frame of a serving daemon or trajectory); an older record is neither
	// read nor served, its class recomputes and is checkpointed anew.
	Resume bool
	// ReadOnly disables checkpoint writes (lookup-only cache); a computed
	// record still fills its class in memory.
	ReadOnly bool
}

// DefaultOptions sizes the runtime for functional (single-machine) runs.
func DefaultOptions() Options {
	return Options{
		NumLeaders: 2,
		Job:        hessian.DefaultJobOptions(),
		Retry:      faults.DefaultRetryPolicy(),
	}
}

// LeaderStats records per-leader accounting for the load-balance analyses.
type LeaderStats struct {
	Fragments int
	Busy      time.Duration
}

// Report summarizes a run.
type Report struct {
	Leaders []LeaderStats
	Elapsed time.Duration
	// NumTasks counts pulls, one fragment each: on a clean run, the content
	// classes resolved.
	NumTasks int
	// Requeues counts straggler re-enqueues: on a cluster backend, the
	// coordinator's reassignments of this job's expired or orphaned leases
	// (cluster.Client fills it). The in-process runtime has no straggler
	// rule and leaves it zero.
	Requeues int
	// Retries counts failed attempts that were re-enqueued by the retry
	// policy (transient failures only).
	Retries int
	// Panics counts attempts that panicked and were recovered at a leader.
	Panics int
	// Failed lists the fragments (ascending) that exhausted recovery and
	// were dropped under the MaxFailedFragments budget; their result slots
	// are nil and their Eq. 1 terms are missing from any assembly.
	Failed []int
	// Degraded is true when Failed is non-empty: the run completed but the
	// spectrum omits the failed fragments' contributions.
	Degraded bool
	// CacheHits counts fragments filled from a canonical record they did not
	// compute: Resumed of them from a store record this run did not compute
	// (on a cluster backend, a cache tier's), Deduped of them from the
	// record another member of their class computed in this run (identical
	// geometry under the content-addressed key), with or without a store.
	// CacheHits == Resumed + Deduped.
	CacheHits int
	// CacheMisses counts fragments that went through the engine: one per
	// computed class.
	CacheMisses int
	Resumed     int
	Deduped     int
	// StoreErrors counts store operations (lookups, checkpoints) that
	// failed — including CRC-corrupt records, which are evicted and
	// recomputed. Store failures degrade to recomputation or to a lost
	// checkpoint, never abort.
	StoreErrors int
	// Classes is the run's content-class table (store.Classify of the
	// decomposition) and Sources[c] where the record of class c,
	// representative Classes.Reps[c], came from: a caller attributes the
	// run's results by key from these, without fingerprinting again.
	Classes *store.Classes
	Sources []Source
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// retryEntry is a fragment waiting out its backoff before re-dispatch.
type retryEntry struct {
	fi      int
	readyAt time.Time
}

// waitTick is how long an idle leader sleeps when unresolved fragments
// exist but none is dispatchable yet (backoff pending or processing
// elsewhere).
const waitTick = time.Millisecond

// Run computes every fragment and returns per-fragment data in
// decomposition order, each its content class's canonical record in its own
// frame: the same bits with or without a store, in-process or on a Backend.
// Run is the one place a run is classified, its store read and its results
// counted: it classifies the decomposition, resolves one record per class —
// on its own master–leader runtime or through Options.Backend — and fills
// and counts every member through fill. With a fail-soft budget
// (Options.MaxFailedFragments > 0) the returned slice may contain nils
// exactly at Report.Failed.
func Run(dec *fragment.Decomposition, opt Options) ([]*hessian.FragmentData, *Report, error) {
	if opt.Backend == nil && opt.NumLeaders <= 0 {
		return nil, nil, fmt.Errorf("sched: need at least one leader")
	}
	nf := len(dec.Fragments)
	start := time.Now()

	// The unit of scheduling is the content class: store.Classify groups the
	// fragments by content key, only each class's representative (its lowest
	// index, so results never depend on goroutine timing) is dispatched, and
	// its canonical record — looked up in the store, or computed — fills
	// every member through that member's own rigid frame.
	cls := store.Classify(dec.Fragments, opt.Job)
	keys, frames := cls.Keys, cls.Frames
	classOf := make([]int, nf)
	for c, r := range cls.Reps {
		for _, m := range cls.Members[r] {
			classOf[m] = c
		}
	}

	obsSc := opt.Obs
	mHits := obsSc.R.Counter(obs.MetricCacheHits)
	mMisses := obsSc.R.Counter(obs.MetricCacheMisses)
	mQueue := obsSc.R.Gauge(obs.MetricQueueDepth)
	mFragWall := obsSc.R.Histogram(obs.MetricFragmentSeconds, obs.DurationBuckets)
	// A fragment's wall time across its attempts (the sched_fragment_seconds
	// sample) and its span, open from first claim to resolution; the
	// in-process runtime allocates them when observability is on.
	var fragWall []time.Duration
	var fragSpans []*obs.Span
	var attempts []int

	// The master's ledger, guarded by mu: results, the report, and the
	// resolved count (fragments done or failed) its leaders poll.
	var mu sync.Mutex
	results := make([]*hessian.FragmentData, nf)
	report := &Report{Classes: cls, Sources: make([]Source, len(cls.Reps))}
	resolved := 0

	// expand rotates a class's canonical record into the own frame of each of
	// the fragments ms; fill hands them the result — ms are the class's
	// unresolved members, ms[0] the one that resolved it, taking wall — and
	// counts them by the record's source. Both dispatch paths end here.
	expand := func(ms []int, canon *hessian.FragmentData) ([]*hessian.FragmentData, error) {
		out := make([]*hessian.FragmentData, len(ms))
		for i, m := range ms {
			fd, err := frames[m].FromCanonical(canon)
			if err != nil {
				return nil, fmt.Errorf("sched: fragment %d: %w", m, err)
			}
			out[i] = fd
		}
		return out, nil
	}
	fill := func(ms []int, out []*hessian.FragmentData, src Source, wall time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		for i, m := range ms {
			results[m] = out[i]
		}
		resolved += len(ms)
		report.Sources[classOf[ms[0]]] = src
		if src == Computed {
			report.CacheMisses++
			report.Deduped += len(ms) - 1
			mMisses.Inc()
			mHits.Add(int64(len(ms) - 1))
		} else {
			report.Resumed += len(ms)
			mHits.Add(int64(len(ms)))
		}
		report.CacheHits = report.Resumed + report.Deduped
		if fragWall == nil {
			return
		}
		fragWall[ms[0]] += wall
		for _, m := range ms {
			mFragWall.ObserveDuration(fragWall[m])
		}
		mQueue.Set(int64(nf - resolved))
		if sp := fragSpans[ms[0]]; sp != nil {
			sp.End(obs.A("attempts", int64(attempts[ms[0]])), obs.A("cachehit", b2i(src == Stored)))
		}
	}

	if opt.Backend != nil {
		requeues, err := opt.Backend.Run(dec, cls, opt, func(c int, canon *hessian.FragmentData, src Source) error {
			if c < 0 || c >= len(cls.Reps) || report.Sources[c] != Unresolved || src == Unresolved {
				return fmt.Errorf("sched: backend resolved class %d twice, out of range or to nothing", c)
			}
			ms := cls.Members[cls.Reps[c]]
			out, err := expand(ms, canon)
			if err == nil {
				fill(ms, out, src, 0)
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if resolved < nf {
			return nil, nil, fmt.Errorf("sched: backend resolved %d of %d fragments", resolved, nf)
		}
		report.NumTasks = len(cls.Reps)
		report.Requeues = requeues
		report.Elapsed = time.Since(start)
		return results, report, nil
	}

	sizes := make([]int, nf)
	for i := range dec.Fragments {
		sizes[i] = dec.Fragments[i].NumAtoms()
	}
	// members is the dispatch copy of cls.Members: a promotion re-roots the
	// rest of a class here, and the report's table stays as classified.
	members := append([][]int(nil), cls.Members...)
	// Fresh work ships largest first so the long fragments start early and
	// the small ones fill the tail; reps is ascending, so the stable sort
	// breaks size ties by index.
	order := append([]int(nil), cls.Reps...)
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] > sizes[order[b]] })
	fresh := 0 // cursor into order

	// Observability: the run span roots the trace; dispatch-side metric
	// instruments are resolved once here (every handle is nil-safe, so
	// with no registry attached each site costs one branch).
	obsOn := obsSc.Enabled()
	tracing := obsSc.Tracing()
	runSc, runSpan := obsSc.Begin("sched.run", "sched",
		obs.A("fragments", int64(nf)), obs.A("leaders", int64(opt.NumLeaders)))
	mRetries := obsSc.R.Counter(obs.MetricRetries)
	mPanics := obsSc.R.Counter(obs.MetricPanics)
	mQueue.Set(int64(nf))
	attempts = make([]int, nf)
	if obsOn {
		fragWall = make([]time.Duration, nf)
		fragSpans = make([]*obs.Span, nf)
	}

	if opt.Cache.Store != nil && obsOn {
		opt.Cache.Store.SetObs(obsSc)
	}

	// The master hands out one fragment per pull under mu: this is the
	// "leader-available → task-assignment" signal loop of Fig. 4(a),
	// collapsed into synchronous calls because goroutines are cheap. The
	// master also keeps the retry/fail-soft ledger. A fragment is pending in
	// order or in retryQ, processing at exactly one leader, or resolved;
	// nothing else re-dispatches it, so no attempt is ever a duplicate.
	var retryQ []retryEntry
	var failed []int
	aborted := false
	cancelled := false
	var abortErrs []error
	report.Leaders = make([]LeaderStats, opt.NumLeaders)

	// claim pops the next dispatchable fragment and marks it processing,
	// returning it with its 1-based attempt number. fi < 0 with wait=true
	// means "nothing to hand out *yet*": fragments are still processing (and
	// may fail back into the queue) or waiting out a backoff, so the leader
	// should stay alive and poll. wait=false means the run is over for this
	// leader (all fragments resolved, or aborting).
	claim := func() (fi, attempt int, wait bool) {
		mu.Lock()
		defer mu.Unlock()
		if aborted {
			return -1, 0, false
		}
		// Cancellation is observed here, the one gate every leader passes
		// between fragments. A run whose fragments all resolved already is
		// left to complete normally.
		if opt.Cancel != nil && resolved < nf {
			select {
			case <-opt.Cancel:
				if !cancelled {
					cancelled = true
					abortErrs = append(abortErrs, fmt.Errorf("%w (%d of %d fragments resolved)", ErrCancelled, resolved, nf))
				}
				aborted = true
				return -1, 0, false
			default:
			}
		}
		// Take the first retry entry whose backoff has elapsed; fresh
		// representatives wait behind it.
		now := time.Now()
		fi = -1
		for i, e := range retryQ {
			if !e.readyAt.After(now) {
				fi = e.fi
				retryQ = append(retryQ[:i], retryQ[i+1:]...)
				break
			}
		}
		if fi < 0 && fresh < len(order) {
			fi = order[fresh]
			fresh++
		}
		if fi < 0 {
			return -1, 0, resolved < nf
		}
		attempts[fi]++
		report.NumTasks++
		if tracing && fragSpans[fi] == nil {
			// The fragment span opens at first claim and ends at
			// resolution, covering queue waits between attempts.
			fragSpans[fi] = obsSc.T.Begin(runSpan, "frag", "frag",
				obs.A("frag", int64(fi)), obs.A("atoms", int64(sizes[fi])))
		}
		return fi, attempts[fi], false
	}
	// promote makes the first of a class's unresolved members its new
	// representative and enqueues it when the old one failed permanently:
	// the rest of the class still has to be produced. Callers hold mu.
	promote := func(rest []int) {
		if len(rest) > 0 {
			members[rest[0]] = rest
			retryQ = append(retryQ, retryEntry{fi: rest[0], readyAt: time.Now()})
		}
	}
	storeError := func() {
		mu.Lock()
		report.StoreErrors++
		mu.Unlock()
	}
	// Records travel to and from the store in the canonical pose, addressed
	// by the identity frame.
	canonFrame := func(fi int) store.Frame { return store.Frame{NAtoms: frames[fi].NAtoms} }
	// lookup returns fi's canonical record from the store when the store
	// holds one this run may be served (Store.Has: any record under Resume,
	// else only one this process wrote), reading nothing otherwise. Store
	// errors (corrupt or unreadable records) degrade to a miss and are
	// counted. A read is recorded as a store.get child of the attempt span.
	lookup := func(fi int, parent uint64, track int32) *hessian.FragmentData {
		st := opt.Cache.Store
		if !st.Has(keys[fi], opt.Cache.Resume) {
			return nil
		}
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		canon, _, err := st.Get(keys[fi], canonFrame(fi))
		if err != nil {
			storeError()
		}
		if tracing {
			obsSc.T.Record(parent, track, "store.get", "store",
				obsSc.T.Since(t0), time.Since(t0), obs.A("hit", b2i(canon != nil)))
		}
		return canon
	}
	// record turns a computed result into its class's canonical record and
	// persists it in a writable store. A failed Put is counted and loses
	// only the persistence; a result with no canonical form fails the
	// attempt.
	record := func(fi int, data *hessian.FragmentData, parent uint64, track int32) (*hessian.FragmentData, error) {
		canon, err := frames[fi].ToCanonical(data)
		if err != nil || opt.Cache.Store == nil || opt.Cache.ReadOnly {
			return canon, err
		}
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		_, perr := opt.Cache.Store.Put(keys[fi], canonFrame(fi), canon)
		if perr != nil {
			storeError()
		}
		if tracing {
			obsSc.T.Record(parent, track, "store.put", "store",
				obsSc.T.Since(t0), time.Since(t0), obs.A("err", b2i(perr != nil)))
		}
		return canon, nil
	}
	// fail records one failed attempt of wall duration. Transient failures
	// inside the retry budget go back to the queue with backoff; anything
	// else consumes the fail-soft budget or aborts the run. Returns false
	// when the leader should stop (run aborting).
	fail := func(fi int, err error, wall time.Duration) bool {
		mu.Lock()
		defer mu.Unlock()
		if obsOn {
			fragWall[fi] += wall
		}
		if faults.IsTransient(err) && attempts[fi] < opt.Retry.Attempts() {
			report.Retries++
			mRetries.Inc()
			retryQ = append(retryQ, retryEntry{
				fi:      fi,
				readyAt: time.Now().Add(opt.Retry.Backoff(fi, attempts[fi])),
			})
			return true
		}
		if len(failed) < opt.MaxFailedFragments {
			failed = append(failed, fi)
			resolved++
			promote(members[fi][1:])
			if obsOn {
				mFragWall.ObserveDuration(fragWall[fi])
				mQueue.Set(int64(nf - resolved))
				if sp := fragSpans[fi]; sp != nil {
					sp.End(obs.A("attempts", int64(attempts[fi])), obs.A("failed", 1))
				}
			}
			return true
		}
		aborted = true
		abortErrs = append(abortErrs, fmt.Errorf("sched: fragment %d (attempt %d): %w", fi, attempts[fi], err))
		return false
	}

	// attemptFragment runs one processing attempt through Compute under the
	// injector's chaos plan. The attempt's observability scope rides into the
	// engine via Job.Obs.
	attemptFragment := func(fi, attempt int, sc obs.Scope) (*hessian.FragmentData, error) {
		var act faults.Action
		if opt.Injector != nil {
			act = opt.Injector.Plan(fi, attempt)
		}
		if act.Err != nil {
			return nil, act.Err
		}
		o := opt
		o.Job.Obs = sc
		poisoned := false
		if act.Panic || act.NaN {
			process := opt.Process
			if process == nil {
				process = DefaultProcess
			}
			o.Process = func(f *fragment.Fragment, po Options) (*hessian.FragmentData, error) {
				if act.Panic {
					panic(fmt.Sprintf("faults: injected panic (fragment %d attempt %d)", fi, attempt))
				}
				data, err := process(f, po)
				if err == nil && data != nil && data.Hess != nil {
					data.Hess.Set(0, 0, math.NaN())
					poisoned = true
				}
				return data, err
			}
		}
		data, err := Compute(&dec.Fragments[fi], o)
		if _, ok := err.(*faults.PanicError); ok {
			mu.Lock()
			report.Panics++
			mu.Unlock()
			mPanics.Inc()
		}
		if poisoned && err != nil {
			// The divergence was injected: the clean retry will succeed.
			err = faults.MarkTransient(err)
		}
		return data, err
	}

	var wg sync.WaitGroup
	for l := 0; l < opt.NumLeaders; l++ {
		wg.Add(1)
		go func(leaderID int) {
			defer wg.Done()
			stats := &report.Leaders[leaderID]
			// Trace lanes: leader l owns track 1+l, its fragment engine's
			// spans included (see hessian.ComputeFragment). Track 0 holds the
			// run and fragment spans.
			leaderTrack := int32(1 + leaderID)
			for {
				fi, attempt, wait := claim()
				if fi < 0 {
					if !wait {
						return
					}
					time.Sleep(waitTick)
					continue
				}
				t0 := time.Now()
				attSc := runSc
				var attSpan *obs.Span
				if obsOn {
					attSc = attSc.WithTrack(leaderTrack)
					if tracing {
						attSpan = obsSc.T.BeginOn(leaderTrack, fragSpans[fi], "attempt", "sched",
							obs.A("frag", int64(fi)), obs.A("attempt", int64(attempt)))
						attSc = attSc.WithSpan(attSpan)
					}
				}
				// The class's record: the store's, or failing that (a miss,
				// or a record no member's frame takes) the engine's.
				class := members[fi]
				var out []*hessian.FragmentData
				src := Stored
				if opt.Cache.Store != nil {
					if canon := lookup(fi, attSpan.ID(), leaderTrack); canon != nil {
						var err error
						if out, err = expand(class, canon); err != nil {
							storeError()
						}
					}
				}
				if out == nil {
					src = Computed
					data, err := attemptFragment(fi, attempt, attSc)
					var canon *hessian.FragmentData
					if err == nil {
						canon, err = record(fi, data, attSpan.ID(), leaderTrack)
					}
					if err == nil {
						out, err = expand(class, canon)
					}
					if err != nil {
						attSpan.End(obs.A("err", 1))
						wall := time.Since(t0)
						stats.Busy += wall
						if !fail(fi, err, wall) {
							return
						}
						continue
					}
				}
				attSpan.End(obs.A("cachehit", b2i(src == Stored)))
				wall := time.Since(t0)
				fill(class, out, src, wall)
				stats.Fragments += len(class)
				stats.Busy += wall
			}
		}(l)
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	runSpan.End()

	sort.Ints(failed)
	report.Failed = failed
	report.Degraded = len(failed) > 0
	if len(abortErrs) > 0 {
		// Prefer the real failures over any "never processed" bookkeeping:
		// every leader's abort reason is reported, none masked.
		return nil, nil, errors.Join(abortErrs...)
	}
	failedSet := make(map[int]bool, len(failed))
	for _, fi := range failed {
		failedSet[fi] = true
	}
	for i, r := range results {
		if r == nil && !failedSet[i] {
			return nil, nil, fmt.Errorf("sched: fragment %d never processed", i)
		}
	}
	return results, report, nil
}
