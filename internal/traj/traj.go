// Package traj is the incremental trajectory engine: it turns the one-shot
// QF-RAMAN pipeline into a streaming one, producing time-resolved Raman
// spectra along an MD trajectory where frame N+1 costs O(moved fragments)
// instead of O(system). The paper's headline 100M-atom spectrum (§VI)
// becomes a production tool only in this many-spectra shape — temperature
// ensembles and conformational averaging à la arXiv:2209.15423 — and the
// content-addressed fragment store already provides the key mechanism:
// fragments are addressed by a rigid-motion-canonical fingerprint, so a
// frame-to-frame diff of fingerprints identifies exactly the fragments
// whose physics changed.
//
// A frame's fragments take one of two paths:
//
//  1. In-memory reuse — a fragment whose coordinates are bit-identical to
//     its identity's in the previous frame keeps last frame's FragmentData
//     pointer outright: no fingerprint, no store round trip, no rotation.
//     (Bit-equal positions give a bit-equal canonical frame, so the held
//     data is exactly what a store lookup would return.) This is the tier
//     that pays off when only a few molecules move per frame.
//  2. Scheduled — every other fragment goes through sched.Run, which
//     classifies them by content key and resolves each class once: a
//     fragment that moved rigidly (or matches any record by content) keeps
//     its key and is served by the store, rotated into its new frame; a
//     class whose key is new runs the engine, optionally warm-started — its
//     reference SCF seeds from the converged charges of the *same fragment
//     identity* in the previous frame (per-atom scalars are
//     rotation-invariant). Warm-starting changes the iteration path, not
//     the physics — spectra agree within the SCF tolerance — and
//     Options.WarmStart=false restores strict bit-identity with
//     independent per-frame runs. The run's classes give the frame its
//     Moved/Rotated split and the next frame's keys.
//
// Every frame assembles from scratch (hessian.AssembleDegraded): gathering
// the Eq. 1 blocks costs what replaying a per-fragment record of them would.
package traj

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// Options configures the trajectory engine.
type Options struct {
	// Core is the one-shot pipeline configuration the engine wraps. The
	// scheduler options (including the cache store, observability scope,
	// and fault policy) are honored per frame; attach a store to serve
	// rigidly-moved fragments without recomputing them.
	Core core.Config
	// WarmStart seeds each recomputed fragment's reference SCF from its own
	// identity's previous-frame converged charges. Off, every frame is
	// bit-identical to an independent per-frame run against the same store.
	WarmStart bool
}

// Engine diffs consecutive frames and recomputes only what moved. It is not
// safe for concurrent use; one engine drives one trajectory.
type Engine struct {
	opt Options
	sc  obs.Scope

	// prev maps fragment identity → last frame's state. Identity is the
	// fragment's role in the decomposition (kind + global atom indices +
	// occurrence ordinal), deliberately not its content hash: warm-start
	// seeds must follow the *molecule* as it moves, while content keys
	// follow the geometry.
	prev  map[string]*prevState
	frame int

	mFrames, mMoved, mRotated, mReused, mRecomputed, mWarm *obs.Counter
	mFrameWall                                             *obs.Histogram
}

// prevState is one fragment identity's carry-over between frames.
type prevState struct {
	key    store.Key
	pos    []geom.Vec3
	data   *hessian.FragmentData
	warmDQ []float64
}

// New builds an engine over the given options.
func New(opt Options) *Engine {
	sc := opt.Core.Sched.Obs
	return &Engine{
		opt:         opt,
		sc:          sc,
		prev:        make(map[string]*prevState),
		mFrames:     sc.R.Counter(obs.MetricTrajFrames),
		mMoved:      sc.R.Counter(obs.MetricTrajMoved),
		mRotated:    sc.R.Counter(obs.MetricTrajRotated),
		mReused:     sc.R.Counter(obs.MetricTrajReused),
		mRecomputed: sc.R.Counter(obs.MetricTrajRecomputed),
		mWarm:       sc.R.Counter(obs.MetricTrajWarmStarts),
		mFrameWall:  sc.R.Histogram(obs.MetricTrajFrameSeconds, obs.DurationBuckets),
	}
}

// FrameReport is one frame's diff/reuse/warm-start accounting.
type FrameReport struct {
	Frame     int
	Fragments int
	// Moved counts fragments whose content fingerprint changed since their
	// identity's previous frame — including identities appearing for the
	// first time (frame 0 counts everything as moved).
	Moved int
	// Rotated counts fragments whose fingerprint is unchanged but whose
	// coordinates moved rigidly: scheduled and, with a store, served by its
	// rotation path, never recomputed.
	Rotated int
	// Reused counts fragments with bit-identical coordinates: previous
	// frame's data reused in memory with no store round trip.
	Reused int
	// Scheduled = Moved + Rotated: fragments that went through the
	// scheduler this frame.
	Scheduled int
	// Recomputed counts engine invocations (scheduler cache misses): moved
	// fragments minus those deduped against the store or each other.
	Recomputed int
	// CacheHits counts scheduled fragments filled from a canonical record
	// they did not compute: a store's, or their content class's in this
	// frame.
	CacheHits int
	// WarmStarted counts recomputed fragments whose reference SCF was
	// seeded from their identity's previous frame.
	WarmStarted int
	// RefIters sums the reference-SCF iteration counts of recomputed
	// fragments — the number warm-starting drives down.
	RefIters int
	Elapsed  time.Duration
	// Degraded/Failed mirror the scheduler's fail-soft ledger, in
	// whole-decomposition fragment indices.
	Degraded bool
	Failed   []int
}

// FrameResult is one processed frame.
type FrameResult struct {
	Spectrum   *raman.Spectrum
	IRSpectrum *raman.Spectrum
	Global     *hessian.Global
	Report     FrameReport
	Sched      *sched.Report
}

// String renders the accounting line of qframan -traj.
func (r FrameReport) String() string {
	s := fmt.Sprintf("traj frame %d: fragments=%d moved=%d rotated=%d reused=%d recomputed=%d hits=%d warm=%d refiters=%d elapsed=%s",
		r.Frame, r.Fragments, r.Moved, r.Rotated, r.Reused, r.Recomputed, r.CacheHits, r.WarmStarted, r.RefIters, r.Elapsed.Round(time.Millisecond))
	if r.Degraded {
		s += fmt.Sprintf(" DEGRADED failed=%v", r.Failed)
	}
	return s
}

// identities assigns each fragment its cross-frame identity string: kind,
// coefficient sign, global atom indices, and an occurrence ordinal (a water
// monomer subtracted once per pair it joins yields several fragments with
// identical kind and atoms; decomposition order is deterministic, so the
// k-th copy maps to the previous frame's k-th copy).
func identities(dec *fragment.Decomposition) []string {
	seen := make(map[string]int, len(dec.Fragments))
	ids := make([]string, len(dec.Fragments))
	var b []byte
	for i := range dec.Fragments {
		f := &dec.Fragments[i]
		b = b[:0]
		b = append(b, byte(f.Kind))
		if f.Coeff < 0 {
			b = append(b, '-')
		} else {
			b = append(b, '+')
		}
		for _, g := range f.GlobalIdx {
			b = binary.AppendVarint(b, int64(g))
		}
		base := string(b)
		n := seen[base]
		seen[base] = n + 1
		ids[i] = base + "#" + strconv.Itoa(n)
	}
	return ids
}

// samePos reports bit-equality of two coordinate sets.
func samePos(a, b []geom.Vec3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffResult is one frame held against the previous frame's identity
// index: the fragments whose positions are bit-equal are reused, the rest
// (sub, in frame order) are scheduled.
type diffResult struct {
	ids       []string
	reused    []*hessian.FragmentData // previous data at reused fragments
	scheduled []int                   // decomposition indices of sub's fragments
	sub       *fragment.Decomposition
	next      map[string]*prevState // the next frame's identity index
	report    FrameReport
}

// diff sorts a frame's fragments into reused and scheduled. It fingerprints
// nothing: the scheduled fragments' keys come to settle afterwards.
func (e *Engine) diff(dec *fragment.Decomposition) *diffResult {
	nf := len(dec.Fragments)
	d := &diffResult{
		ids:    identities(dec),
		reused: make([]*hessian.FragmentData, nf),
		sub:    &fragment.Decomposition{},
		next:   make(map[string]*prevState, nf),
	}
	for i := range dec.Fragments {
		f := &dec.Fragments[i]
		if p := e.prev[d.ids[i]]; p != nil && samePos(p.pos, f.Pos) {
			d.reused[i] = p.data
			d.next[d.ids[i]] = p
			d.report.Reused++
			continue
		}
		d.scheduled = append(d.scheduled, i)
		d.sub.Fragments = append(d.sub.Fragments, *f)
	}
	d.report.Scheduled = len(d.scheduled)
	return d
}

// settle takes the scheduled fragments' content keys — keys[j] is
// scheduled[j]'s, from the frame's scheduler run or from Diff's own
// classification — counts each fragment Rotated when its identity kept its
// key and Moved otherwise (a new identity included), and enters it in the
// next frame's index, returning the new entries in sub order.
func (e *Engine) settle(dec *fragment.Decomposition, d *diffResult, keys []store.Key) []*prevState {
	states := make([]*prevState, len(d.scheduled))
	for j, i := range d.scheduled {
		if p := e.prev[d.ids[i]]; p != nil && p.key == keys[j] {
			d.report.Rotated++
		} else {
			d.report.Moved++
		}
		states[j] = &prevState{key: keys[j], pos: append([]geom.Vec3(nil), dec.Fragments[i].Pos...)}
		d.next[d.ids[i]] = states[j]
	}
	return states
}

// partition fragments a frame with the engine configured in the pipeline
// config (nil Partitioner → the QF engine), so trajectory runs use exactly
// the partitioner a one-shot run over the same config would.
func (e *Engine) partition(sys *structure.System) (*fragment.Decomposition, error) {
	if p := e.opt.Core.Partitioner; p != nil {
		return p.Partition(sys)
	}
	return fragment.Decompose(sys, e.opt.Core.Fragment)
}

// Step processes the next frame of the trajectory and returns its spectrum
// and accounting. The first frame schedules every fragment — byte-for-byte
// the same computation as a one-shot run over the same system and store.
func (e *Engine) Step(sys *structure.System) (*FrameResult, error) {
	t0 := time.Now()
	frameSc, frameSpan := e.sc.Begin("traj.frame", "traj", obs.A("frame", int64(e.frame)))
	defer frameSpan.End()

	_, dspan := frameSc.Begin("traj.decompose", "traj", obs.A("atoms", int64(sys.NumAtoms())))
	dec, err := e.partition(sys)
	dspan.End()
	if err != nil {
		return nil, fmt.Errorf("traj: frame %d: decompose: %w", e.frame, err)
	}
	if len(dec.Fragments) == 0 {
		return nil, fmt.Errorf("traj: frame %d produced no fragments", e.frame)
	}

	_, fspan := frameSc.Begin("traj.diff", "traj", obs.A("fragments", int64(len(dec.Fragments))))
	d := e.diff(dec)
	fspan.End(obs.A("reused", int64(d.report.Reused)), obs.A("scheduled", int64(d.report.Scheduled)))

	datas := make([]*hessian.FragmentData, len(dec.Fragments))
	copy(datas, d.reused)

	var schedRep *sched.Report
	var failed []int
	warmed := 0
	refIters := 0
	if len(d.scheduled) > 0 {
		sub := d.sub
		// Warm seeds and reference captures are keyed by the sub-fragment's
		// address — the one pointer sched hands the hooks.
		var mu sync.Mutex
		seeds := make(map[*fragment.Fragment][]float64)
		type refCap struct {
			dq    []float64
			iters int
		}
		caps := make(map[*fragment.Fragment]refCap)
		// Every scheduled fragment is offered its identity's seed; only one
		// the engine runs for asks (a store-served one never does).
		if e.opt.WarmStart {
			for j, i := range d.scheduled {
				if p := e.prev[d.ids[i]]; p != nil && p.warmDQ != nil {
					seeds[&sub.Fragments[j]] = p.warmDQ
				}
			}
		}
		opts := e.opt.Core.Sched
		opts.Obs = frameSc
		if len(seeds) > 0 {
			opts.WarmStart = func(f *fragment.Fragment) []float64 {
				mu.Lock()
				defer mu.Unlock()
				s := seeds[f]
				if s != nil {
					warmed++
				}
				return s
			}
		}
		opts.OnReference = func(f *fragment.Fragment, dq []float64, iters int) {
			mu.Lock()
			defer mu.Unlock()
			caps[f] = refCap{dq: dq, iters: iters}
			refIters += iters
		}
		subDatas, rep, err := sched.Run(sub, opts)
		if err != nil {
			return nil, fmt.Errorf("traj: frame %d: fragment jobs: %w", e.frame, err)
		}
		schedRep = rep
		d.report.Recomputed = rep.CacheMisses
		d.report.CacheHits = rep.CacheHits
		states := e.settle(dec, d, rep.Classes.Keys)
		failedSub := make(map[int]bool, len(rep.Failed))
		for _, j := range rep.Failed {
			failedSub[j] = true
		}
		for j, i := range d.scheduled {
			if failedSub[j] {
				failed = append(failed, i)
				delete(d.next, d.ids[i])
				continue
			}
			datas[i] = subDatas[j]
			ps := states[j]
			ps.data = subDatas[j]
			if c, ok := caps[&sub.Fragments[j]]; ok {
				ps.warmDQ = c.dq
			} else if p := e.prev[d.ids[i]]; p != nil {
				// Store-served fragment: carry the previous charges forward
				// (per-atom scalars survive rigid motion).
				ps.warmDQ = p.warmDQ
			}
		}
	}
	e.prev = d.next
	d.report.Frame = e.frame
	d.report.Fragments = len(dec.Fragments)
	d.report.WarmStarted = warmed
	d.report.RefIters = refIters
	d.report.Failed = failed
	d.report.Degraded = len(failed) > 0

	_, aspan := frameSc.Begin("traj.assemble", "traj", obs.A("fragments", int64(len(dec.Fragments))))
	g, err := hessian.AssembleDegraded(dec, sys.Masses(), datas, !e.opt.Core.Sched.Job.SkipAlpha, failed)
	aspan.End()
	if err != nil {
		return nil, fmt.Errorf("traj: frame %d: assemble: %w", e.frame, err)
	}

	res := &FrameResult{Global: g, Sched: schedRep}
	if !e.opt.Core.Sched.Job.SkipAlpha {
		_, sspan := frameSc.Begin("traj.spectrum", "traj")
		cfg := e.opt.Core
		cfg.Sched.Obs = frameSc
		res.Spectrum, res.IRSpectrum, err = core.SpectrumFromGlobal(g, cfg)
		sspan.End()
		if err != nil {
			return nil, fmt.Errorf("traj: frame %d: %w", e.frame, err)
		}
	}
	d.report.Elapsed = time.Since(t0)
	res.Report = d.report

	e.mFrames.Inc()
	e.mMoved.Add(int64(d.report.Moved))
	e.mRotated.Add(int64(d.report.Rotated))
	e.mReused.Add(int64(d.report.Reused))
	e.mRecomputed.Add(int64(d.report.Recomputed))
	e.mWarm.Add(int64(d.report.WarmStarted))
	e.mFrameWall.ObserveDuration(d.report.Elapsed)
	e.frame++
	return res, nil
}

// Diff classifies one frame against the previous one without computing
// anything: the accounting mode of qfstats -traj. It advances the same
// identity index as Step (minus warm-start charges and data, which only
// computation can produce), so successive Diff calls report exactly what a
// computing run would schedule. With no scheduler run to take keys from, it
// classifies the scheduled fragments itself.
func (e *Engine) Diff(sys *structure.System) (FrameReport, error) {
	t0 := time.Now()
	dec, err := e.partition(sys)
	if err != nil {
		return FrameReport{}, fmt.Errorf("traj: frame %d: decompose: %w", e.frame, err)
	}
	if len(dec.Fragments) == 0 {
		return FrameReport{}, fmt.Errorf("traj: frame %d produced no fragments", e.frame)
	}
	d := e.diff(dec)
	e.settle(dec, d, store.Classify(d.sub.Fragments, e.opt.Core.Sched.Job).Keys)
	e.prev = d.next
	d.report.Frame = e.frame
	d.report.Fragments = len(dec.Fragments)
	d.report.Elapsed = time.Since(t0)
	e.frame++
	return d.report, nil
}
