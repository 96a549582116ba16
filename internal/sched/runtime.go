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
	NumLeaders       int
	WorkersPerLeader int
	Packer           PackerOptions
	Job              hessian.JobOptions
	// Prefetch lets a leader request its next task while the current one
	// is still executing (Fig. 4(d)/(e)); workers that finish early start
	// on the prefetched task immediately.
	Prefetch bool
	// StragglerTimeout re-enqueues fragments that have been processing
	// longer than this without completing (Fig. 4(a): "fragments processed
	// for a long time but not yet completed are marked un-processed again").
	// The first completion wins; late duplicates are discarded. Zero
	// disables the watchdog.
	StragglerTimeout time.Duration
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
	// and may stall it, fail it, poison its result with NaNs, or panic —
	// the chaos-testing hook (see internal/faults).
	Injector faults.Injector
	// Process overrides the fragment engine (the leader's model build +
	// displacement fan-out). Tests and custom engines use it; nil selects
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
	// Cache wires the persistent fragment-result store into the runtime:
	// the run is scheduled by content class (store.Classify) — one lookup or
	// one computation plus checkpoint per distinct key, every other member
	// filled from that canonical record.
	Cache CacheOptions
	// Obs carries the observability sinks (span tracer, metrics registry).
	// The runtime records run/task/frag/attempt spans, dispatch and cache
	// metrics, and the per-fragment ledger behind Report.Stragglers; the
	// scope is threaded down to the SCF/DFPT engine for per-phase spans.
	// The zero Scope disables all of it.
	Obs obs.Scope
	// Backend, when non-nil, replaces the in-process leader/worker fan-out
	// with a pluggable dispatch backend — Run delegates the whole fragment
	// loop to it. internal/cluster.Client implements this to fan fragments
	// out to remote worker daemons over the wire (qframan -cluster);
	// in-process options that configure the goroutine runtime (Prefetch,
	// StragglerTimeout, Injector, MaxFailedFragments) do not apply, while
	// Job, Cancel, and Obs are honored by every backend.
	Backend Backend
}

// Backend is a pluggable dispatch backend for the fragment loop: it receives
// the full decomposition and must return per-fragment data in decomposition
// order, exactly as the in-process runtime would. Implementations must
// preserve the determinism contract — results bit-identical to the
// in-process store-backed run — and honor Options.Cancel.
type Backend interface {
	Run(dec *fragment.Decomposition, opt Options) ([]*hessian.FragmentData, *Report, error)
}

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
	data, ref, err := hessian.ComputeFragment(f, job, opt.WorkersPerLeader)
	if err == nil && opt.OnReference != nil {
		opt.OnReference(f, ref.DeltaQ, ref.Iterations)
	}
	return data, err
}

// CacheOptions configures the runtime's use of a checkpoint store.
type CacheOptions struct {
	// Store is the open store; nil disables caching entirely.
	Store *store.Store
	// Resume serves results recorded by *previous* runs. Without it the
	// store still checkpoints completions and identical fragments still
	// share one computation, but pre-existing records are ignored (and
	// re-verified by overwriting them when their classes recompute).
	Resume bool
	// ReadOnly disables checkpoint writes (lookup-only cache).
	ReadOnly bool
}

// DefaultOptions sizes the runtime for functional (single-machine) runs.
func DefaultOptions() Options {
	return Options{
		NumLeaders:       2,
		WorkersPerLeader: 2,
		Packer:           DefaultPackerOptions(2),
		Job:              hessian.DefaultJobOptions(),
		Prefetch:         true,
		Retry:            faults.DefaultRetryPolicy(),
	}
}

// LeaderStats records per-leader accounting for the load-balance analyses.
type LeaderStats struct {
	Tasks         int
	Fragments     int
	Displacements int
	Busy          time.Duration
}

// Report summarizes a run.
type Report struct {
	Leaders  []LeaderStats
	Elapsed  time.Duration
	NumTasks int
	// Requeues counts straggler re-enqueues performed by the watchdog.
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
	// CacheHits counts fragments served from the store without computing:
	// Resumed of them from records a previous run wrote, Deduped of them
	// from records another fragment of this run wrote (identical geometry
	// under the content-addressed key). CacheHits == Resumed + Deduped.
	CacheHits int
	// CacheMisses counts fragments that went through the engine.
	CacheMisses int
	Resumed     int
	Deduped     int
	// StoreErrors counts store operations (lookups, checkpoints) that
	// failed — including CRC-corrupt records, which are evicted and
	// recomputed. Store failures degrade to recomputation, never abort.
	StoreErrors int
	// Stragglers is the per-phase latency and top-K slowest-fragment
	// summary assembled from the observability ledger; nil when the run had
	// no Options.Obs sinks attached.
	Stragglers *obs.StragglerSummary
}

// StragglerTopK is how many slowest fragments Report.Stragglers keeps.
const StragglerTopK = 10

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// fragment lifecycle states tracked by the master.
const (
	statePending = iota
	stateProcessing
	stateDone
	stateFailed
)

// retryEntry is a fragment waiting out its backoff before re-dispatch.
type retryEntry struct {
	fi      int
	readyAt time.Time
}

// waitTick is how long an idle leader sleeps when unresolved fragments
// exist but none is dispatchable yet (backoff pending or processing
// elsewhere).
const waitTick = time.Millisecond

// Run executes the displacement loops of all fragments on the three-level
// runtime and returns per-fragment data in decomposition order. With a
// fail-soft budget (Options.MaxFailedFragments > 0) the returned slice may
// contain nils exactly at Report.Failed.
func Run(dec *fragment.Decomposition, opt Options) ([]*hessian.FragmentData, *Report, error) {
	if opt.Backend != nil {
		return opt.Backend.Run(dec, opt)
	}
	if opt.NumLeaders <= 0 || opt.WorkersPerLeader <= 0 {
		return nil, nil, fmt.Errorf("sched: need at least one leader and one worker")
	}
	nf := len(dec.Fragments)
	sizes := make([]int, nf)
	for i := range dec.Fragments {
		sizes[i] = dec.Fragments[i].NumAtoms()
	}

	// The unit of scheduling is the content class. With a store attached,
	// store.Classify groups the fragments by content key; only each class's
	// representative (its lowest index, so results never depend on goroutine
	// timing) is packed and dispatched, and its canonical record — looked up
	// once, or computed and checkpointed once — fills every other member
	// through that member's own rigid frame. Without a store every fragment
	// is a class of one and the same loop runs.
	cacheOn := opt.Cache.Store != nil
	var keys []store.Key
	var frames []store.Frame
	var reps []int
	// members[r] lists the fragments representative r resolves, r first.
	members := make([][]int, nf)
	if cacheOn {
		cls := store.Classify(dec.Fragments, opt.Job)
		keys, frames, reps, members = cls.Keys, cls.Frames, cls.Reps, cls.Members
	} else {
		reps = make([]int, nf)
		for i := range reps {
			reps[i] = i
			members[i] = reps[i : i+1 : i+1]
		}
	}
	repSizes := make([]int, len(reps))
	for j, r := range reps {
		repSizes[j] = sizes[r]
	}
	opt.Packer.NumLeaders = opt.NumLeaders
	packer := NewPacker(repSizes, opt.Packer)
	process := opt.Process
	if process == nil {
		process = DefaultProcess
	}

	// Observability: the run span roots the trace; dispatch-side metric
	// instruments are resolved once here (every handle is nil-safe, so
	// with no registry attached each site costs one branch).
	obsSc := opt.Obs
	obsOn := obsSc.Enabled()
	tracing := obsSc.Tracing()
	runSc, runSpan := obsSc.Begin("sched.run", "sched",
		obs.A("fragments", int64(nf)), obs.A("leaders", int64(opt.NumLeaders)))
	mQueue := obsSc.R.Gauge(obs.MetricQueueDepth)
	mRetries := obsSc.R.Counter(obs.MetricRetries)
	mRequeues := obsSc.R.Counter(obs.MetricRequeues)
	mPanics := obsSc.R.Counter(obs.MetricPanics)
	mHits := obsSc.R.Counter(obs.MetricCacheHits)
	mMisses := obsSc.R.Counter(obs.MetricCacheMisses)
	mFragWall := obsSc.R.Histogram(obs.MetricFragmentSeconds, obs.DurationBuckets)
	mQueue.Set(int64(nf))
	// Per-fragment ledger feeding Report.Stragglers: wall time across
	// attempts, engine-side phase accumulators, and cache provenance.
	var fragStats []obs.FragStats
	var fragWall []time.Duration
	var fragSpans []*obs.Span
	var cacheServed []bool
	if obsOn {
		fragStats = make([]obs.FragStats, nf)
		fragWall = make([]time.Duration, nf)
		fragSpans = make([]*obs.Span, nf)
		cacheServed = make([]bool, nf)
	}

	if cacheOn && obsOn {
		opt.Cache.Store.SetObs(obsSc)
	}

	// The master hands out tasks through a mutex-guarded packer: this is
	// the "leader-available → task-assignment" signal loop of Fig. 4(a),
	// collapsed into synchronous calls because goroutines are cheap. The
	// master also tracks per-fragment state for the straggler watchdog and
	// the retry/fail-soft ledger.
	var mu sync.Mutex
	state := make([]int, nf)
	attempts := make([]int, nf)
	startedAt := make([]time.Time, nf)
	var retryQ []retryEntry
	var failed []int
	resolved := 0 // fragments done or failed
	aborted := false
	cancelled := false
	var abortErrs []error
	results := make([]*hessian.FragmentData, nf)
	report := &Report{Leaders: make([]LeaderStats, opt.NumLeaders)}

	// nextTask pops dispatchable work. A nil task with wait=true means
	// "nothing to hand out *yet*": fragments are still processing (and may
	// fail back into the queue) or waiting out a backoff, so the leader
	// should stay alive and poll. wait=false means the run is over for
	// this leader (all fragments resolved, or aborting).
	nextTask := func() (*Task, bool) {
		mu.Lock()
		defer mu.Unlock()
		if aborted {
			return nil, false
		}
		// Cancellation is observed here, the one gate every leader passes
		// between tasks. A run whose fragments all resolved already is left
		// to complete normally.
		if opt.Cancel != nil && resolved < nf {
			select {
			case <-opt.Cancel:
				if !cancelled {
					cancelled = true
					abortErrs = append(abortErrs, fmt.Errorf("%w (%d of %d fragments resolved)", ErrCancelled, resolved, nf))
				}
				aborted = true
				return nil, false
			default:
			}
		}
		// Compact the retry queue — entries resolved elsewhere are stale —
		// and dispatch the first one whose backoff has elapsed.
		now := time.Now()
		kept := retryQ[:0]
		var ready *Task
		for _, e := range retryQ {
			if state[e.fi] != statePending {
				continue
			}
			if ready == nil && !e.readyAt.After(now) {
				ready = &Task{ID: -1, Fragments: []int{e.fi}}
				continue
			}
			kept = append(kept, e)
		}
		retryQ = kept
		if ready != nil {
			return ready, false
		}
		for {
			t := packer.Next()
			if t == nil {
				return nil, resolved < nf
			}
			// The packer indexes representatives; drop those already
			// completed via a requeue duplicate.
			kept := t.Fragments[:0]
			for _, j := range t.Fragments {
				if fi := reps[j]; state[fi] == statePending {
					kept = append(kept, fi)
				}
			}
			if len(kept) > 0 {
				t.Fragments = kept
				return t, false
			}
		}
	}
	// markProcessing claims a fragment for one attempt and returns its
	// 1-based attempt number.
	markProcessing := func(fi int) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if state[fi] != statePending {
			return 0, false
		}
		state[fi] = stateProcessing
		startedAt[fi] = time.Now()
		attempts[fi]++
		if tracing && fragSpans[fi] == nil {
			// The fragment span opens at first claim and ends at
			// resolution, covering queue waits between attempts.
			fragSpans[fi] = obsSc.T.Begin(runSpan, "frag", "frag",
				obs.A("frag", int64(fi)), obs.A("atoms", int64(sizes[fi])))
		}
		return attempts[fi], true
	}
	// complete records a fragment's result and its cache provenance: served
	// means the bits came from a canonical record this fragment did not
	// compute, prior that the record predates this run. A class member
	// filled from its representative's record was never claimed, so its
	// start time is zero and it adds no wall.
	complete := func(fi int, data *hessian.FragmentData, served, prior bool) bool {
		mu.Lock()
		defer mu.Unlock()
		if state[fi] == stateDone || state[fi] == stateFailed {
			return false // a duplicate (straggler) attempt lost the race
		}
		state[fi] = stateDone
		results[fi] = data
		resolved++
		switch {
		case !cacheOn:
		case !served:
			report.CacheMisses++
			mMisses.Inc()
		default:
			report.CacheHits++
			mHits.Inc()
			if prior {
				report.Resumed++
			} else {
				report.Deduped++
			}
		}
		if obsOn {
			if !startedAt[fi].IsZero() {
				fragWall[fi] += time.Since(startedAt[fi])
			}
			cacheServed[fi] = served
			mFragWall.ObserveDuration(fragWall[fi])
			mQueue.Set(int64(nf - resolved))
			if sp := fragSpans[fi]; sp != nil {
				sp.End(obs.A("attempts", int64(attempts[fi])), obs.A("cachehit", b2i(served)))
			}
		}
		return true
	}
	// promote makes the first of a class's unresolved members its new
	// representative and enqueues it — when the old one failed permanently,
	// or finished without a canonical record to share (checkpointing off or
	// failed), the rest of the class still has to be produced. Callers hold
	// mu.
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
	// by the identity frame; expand rotates one into member m's own frame.
	canonFrame := func(fi int) store.Frame { return store.Frame{NAtoms: frames[fi].NAtoms} }
	expand := func(m int, canon *hessian.FragmentData) *hessian.FragmentData {
		fd, err := frames[m].FromCanonical(canon)
		if err != nil {
			storeError()
			return nil
		}
		return fd
	}
	// lookup resolves a representative from the store if an eligible record
	// exists, returning it both in fi's frame and canonical; prior-run
	// records require Resume. Store errors (corrupt or unreadable records)
	// degrade to a miss and are counted. The lookup is recorded as a
	// store.get child of the attempt span.
	lookup := func(fi int, parent uint64, track int32) (data, canon *hessian.FragmentData, prior bool) {
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		canon, prior, err := opt.Cache.Store.Get(keys[fi], canonFrame(fi))
		switch {
		case err != nil:
			storeError()
		case canon != nil && (!prior || opt.Cache.Resume):
			data = expand(fi, canon)
		}
		if tracing {
			obsSc.T.Record(parent, track, "store.get", "store",
				obsSc.T.Since(t0), time.Since(t0), obs.A("hit", b2i(data != nil)))
		}
		if data == nil {
			return nil, nil, false
		}
		return data, canon, prior
	}
	// checkpoint writes a computed result and returns its canonical
	// roundtrip — in fi's frame and canonical — so computed and cache-served
	// completions are bit-identical. A failed checkpoint degrades to keeping
	// the in-memory result, with no record for the class to share.
	checkpoint := func(fi int, data *hessian.FragmentData, parent uint64, track int32) (rt, canon *hessian.FragmentData) {
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		canon, err := frames[fi].ToCanonical(data)
		if err == nil {
			canon, err = opt.Cache.Store.Put(keys[fi], canonFrame(fi), canon)
		}
		if err != nil {
			storeError()
		} else {
			rt = expand(fi, canon)
		}
		if tracing {
			obsSc.T.Record(parent, track, "store.put", "store",
				obsSc.T.Since(t0), time.Since(t0), obs.A("err", b2i(rt == nil)))
		}
		if rt == nil {
			return data, nil
		}
		return rt, canon
	}
	// restore returns undispatched fragments (a prefetched task, or the
	// unprocessed remainder of the current task) to the pool when a leader
	// exits early, so surviving leaders can finish them instead of the run
	// ending with fragments silently un-processed.
	restore := func(frags []int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		for _, fi := range frags {
			if state[fi] == statePending {
				retryQ = append(retryQ, retryEntry{fi: fi, readyAt: now})
			}
		}
	}
	// fail records one failed attempt. Transient failures inside the retry
	// budget go back to the queue with backoff; anything else consumes the
	// fail-soft budget or aborts the run. Returns false when the leader
	// should stop (run aborting). Only the attempt that currently owns the
	// fragment may drive its state: a stale attempt — one the watchdog
	// already requeued and another leader restarted — reports nothing.
	fail := func(fi, attempt int, err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if state[fi] != stateProcessing || attempts[fi] != attempt {
			return !aborted
		}
		if obsOn {
			fragWall[fi] += time.Since(startedAt[fi])
		}
		if faults.IsTransient(err) && attempts[fi] < opt.Retry.Attempts() {
			state[fi] = statePending
			report.Retries++
			mRetries.Inc()
			retryQ = append(retryQ, retryEntry{
				fi:      fi,
				readyAt: time.Now().Add(opt.Retry.Backoff(fi, attempts[fi])),
			})
			return true
		}
		if len(failed) < opt.MaxFailedFragments {
			state[fi] = stateFailed
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

	// attemptFragment runs one processing attempt under the injector's
	// chaos plan, with panics recovered and results scrubbed for NaN. The
	// attempt's observability scope rides into the engine via Job.Obs.
	attemptFragment := func(fi, attempt int, sc obs.Scope) (data *hessian.FragmentData, err error) {
		var act faults.Action
		if opt.Injector != nil {
			act = opt.Injector.Plan(fi, attempt)
		}
		if act.Delay > 0 {
			time.Sleep(act.Delay)
		}
		if act.Err != nil {
			return nil, act.Err
		}
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				report.Panics++
				mu.Unlock()
				mPanics.Inc()
				data, err = nil, faults.Recovered(r)
			}
		}()
		if act.Panic {
			panic(fmt.Sprintf("faults: injected panic (fragment %d attempt %d)", fi, attempt))
		}
		o := opt
		o.Job.Obs = sc
		data, err = process(&dec.Fragments[fi], o)
		if err != nil {
			return nil, err
		}
		if act.NaN && data != nil && data.Hess != nil {
			data.Hess.Set(0, 0, math.NaN())
		}
		if verr := data.Validate(); verr != nil {
			if act.NaN {
				// The divergence was injected: the clean retry will succeed.
				verr = faults.MarkTransient(verr)
			}
			return nil, fmt.Errorf("sched: fragment %d result rejected: %w", fi, verr)
		}
		return data, nil
	}

	start := time.Now()
	stopWatchdog := make(chan struct{})
	if opt.StragglerTimeout > 0 {
		go func() {
			ticker := time.NewTicker(opt.StragglerTimeout / 4)
			defer ticker.Stop()
			for {
				select {
				case <-stopWatchdog:
					return
				case <-ticker.C:
					mu.Lock()
					now := time.Now()
					for fi := range state {
						if state[fi] == stateProcessing && now.Sub(startedAt[fi]) > opt.StragglerTimeout {
							state[fi] = statePending
							report.Requeues++
							mRequeues.Inc()
							if obsOn {
								fragWall[fi] += now.Sub(startedAt[fi])
							}
							retryQ = append(retryQ, retryEntry{fi: fi, readyAt: now})
						}
					}
					mu.Unlock()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for l := 0; l < opt.NumLeaders; l++ {
		wg.Add(1)
		go func(leaderID int) {
			defer wg.Done()
			stats := &report.Leaders[leaderID]
			// Trace lanes: leader l owns track 1+l*(W+1); its W workers take
			// the following W tracks (see hessian.ComputeFragment). Track 0 holds
			// the run and fragment spans.
			leaderTrack := int32(1 + leaderID*(opt.WorkersPerLeader+1))
			var pending *Task
			defer func() {
				if pending != nil {
					restore(pending.Fragments)
				}
			}()
			for {
				task := pending
				pending = nil
				if task == nil {
					var wait bool
					task, wait = nextTask()
					if task == nil {
						if !wait {
							return
						}
						time.Sleep(waitTick)
						continue
					}
				}
				if opt.Prefetch && pending == nil {
					pending, _ = nextTask()
				}
				var taskSpan *obs.Span
				if tracing {
					taskSpan = obsSc.T.BeginOn(leaderTrack, runSpan, "task", "sched",
						obs.A("task", int64(task.ID)), obs.A("nfrags", int64(len(task.Fragments))))
				}
				t0 := time.Now()
				for i, fi := range task.Fragments {
					attempt, ok := markProcessing(fi)
					if !ok {
						continue // completed elsewhere meanwhile
					}
					attSc := runSc
					var attSpan *obs.Span
					if obsOn {
						attSc = attSc.WithTrack(leaderTrack).WithFrag(&fragStats[fi])
						if tracing {
							attSpan = obsSc.T.BeginOn(leaderTrack, fragSpans[fi], "attempt", "sched",
								obs.A("frag", int64(fi)), obs.A("attempt", int64(attempt)))
							attSc = attSc.WithSpan(attSpan)
						}
					}
					var data, canon *hessian.FragmentData
					prior := false
					if cacheOn {
						data, canon, prior = lookup(fi, attSpan.ID(), leaderTrack)
					}
					served := data != nil
					if !served {
						var err error
						data, err = attemptFragment(fi, attempt, attSc)
						if err != nil {
							attSpan.End(obs.A("err", 1))
							if !fail(fi, attempt, err) {
								taskSpan.End()
								restore(task.Fragments[i+1:])
								return
							}
							continue
						}
						if cacheOn && !opt.Cache.ReadOnly {
							data, canon = checkpoint(fi, data, attSpan.ID(), leaderTrack)
						}
					}
					attSpan.End(obs.A("cachehit", b2i(served)))
					if !complete(fi, data, served, prior) {
						continue
					}
					// Fill the rest of the class from the canonical record,
					// outside the master mutex; whatever cannot be filled gets
					// a new representative.
					class := members[fi]
					n := 1 // resolved members, the representative first
					for ; canon != nil && n < len(class); n++ {
						fd := expand(class[n], canon)
						if fd == nil {
							break
						}
						complete(class[n], fd, true, prior)
					}
					mu.Lock()
					promote(class[n:])
					mu.Unlock()
					if n > 1 {
						opt.Cache.Store.Ref(keys[fi], n-1)
					}
					for _, m := range class[:n] {
						stats.Fragments++
						stats.Displacements += 6 * sizes[m]
					}
				}
				taskSpan.End()
				stats.Tasks++
				stats.Busy += time.Since(t0)
				mu.Lock()
				report.NumTasks++
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	close(stopWatchdog)
	report.Elapsed = time.Since(start)
	runSpan.End()
	if obsOn {
		rows := make([]obs.FragStat, nf)
		for i := range rows {
			rows[i] = obs.FragStat{
				Frag: i, Atoms: sizes[i], Attempts: attempts[i],
				Wall: fragWall[i], Phase: fragStats[i].PhaseTotals(),
				Cycles: fragStats[i].Cycles(), SCFIters: fragStats[i].SCFIters(),
				CacheHit: cacheServed[i],
			}
		}
		report.Stragglers = obs.Stragglers(rows, StragglerTopK)
	}

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
