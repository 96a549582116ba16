// Package serve is the high-throughput spectra service: a long-lived,
// multi-tenant job-queue daemon wrapping the QF-RAMAN engine, in the spirit
// of high-throughput first-principles Raman pipelines (arXiv:2209.15423)
// where many structures flow through one shared computation service. Jobs
// submitted over HTTP/JSON run through one shared fragment-level scheduler
// (internal/sched) backed by one shared content-addressed store
// (internal/store), so overlapping solvated systems submitted by different
// tenants share water-fragment results automatically. A weighted fair-share
// queue arbitrates tenants, admission control bounds queue depth and job
// size (429 + Retry-After instead of OOM under burst), and per-job labeled
// metrics (internal/obs) stream progress through /status and /jobs/{id}.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"qframan/internal/geom"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/structure"
)

// Submit validation errors. ErrTooLarge maps to 413; every other
// validation failure maps to 400.
var (
	ErrTooLarge = errors.New("serve: system exceeds the admission size limit")
)

// Limits bound what a single submission may ask for.
type Limits struct {
	// MaxAtoms caps the atom count of one job's system.
	MaxAtoms int
	// MaxTextBytes caps the inline structure text payload.
	MaxTextBytes int
}

// SystemSpec names the structure a job wants computed. Exactly one kind:
//
//	{"kind":"waterbox","nx":2,"ny":2,"nz":2,"origin":[0,0,0]}
//	{"kind":"dimers","n":3}
//	{"kind":"text","text":"ATOM 0 OW O HOH 0 0 1.0 2.0 3.0\n..."}
type SystemSpec struct {
	Kind   string     `json:"kind"`
	NX     int        `json:"nx,omitempty"`
	NY     int        `json:"ny,omitempty"`
	NZ     int        `json:"nz,omitempty"`
	Origin [3]float64 `json:"origin,omitempty"`
	N      int        `json:"n,omitempty"`
	Text   string     `json:"text,omitempty"`
}

// SpectrumSpec carries the optional per-job spectrum settings; zero values
// select the engine defaults.
type SpectrumSpec struct {
	FreqMin  float64 `json:"fmin,omitempty"`
	FreqMax  float64 `json:"fmax,omitempty"`
	FreqStep float64 `json:"fstep,omitempty"`
	Sigma    float64 `json:"sigma,omitempty"`
	// LanczosK is at most 1 000 (maxLanczosK). A system of at most K
	// coordinates, or one whose eigendecomposition costs less than K steps,
	// is solved exactly.
	LanczosK int `json:"k,omitempty"`
}

// maxLanczosK bounds SpectrumSpec.LanczosK at five times the default K.
// K decides how large a Hessian the exact route densifies (at K = 1 000 it
// stops near n = 1 950, a 30 MB matrix) and the size of the quadrature's
// history (3.4 GB at the default atom cap); a K of 100 000 would let one
// request densify a 60 000² Hessian (28.8 GB) or keep a 336 GB history.
const maxLanczosK = 1000

// SubmitRequest is the POST /jobs payload.
type SubmitRequest struct {
	// Tenant is the fair-share accounting identity; [A-Za-z0-9._-]{1,64}.
	Tenant   string     `json:"tenant"`
	Priority int        `json:"priority,omitempty"` // -2 (batch) … +2 (interactive), FIFO within
	System   SystemSpec `json:"system"`
	// HessianOnly skips the polarizability displacements and the spectrum.
	HessianOnly bool         `json:"hessian_only,omitempty"`
	Spectrum    SpectrumSpec `json:"spectrum,omitempty"`
}

// PriorityMin and PriorityMax bound SubmitRequest.Priority.
const (
	PriorityMin = -2
	PriorityMax = 2
)

const maxTenantLen = 64

// validTenant accepts [A-Za-z0-9._-]{1,64}: safe in metric labels, log
// lines, and JSON without escaping.
func validTenant(s string) bool {
	if len(s) == 0 || len(s) > maxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// ParseSubmitRequest decodes and validates a submit payload against the
// limits. Malformed JSON, unknown fields, bad tenants, out-of-range
// priorities, non-finite geometry, and oversized systems are all rejected
// with an error — never a panic — which is what FuzzSubmitRequest pins.
func ParseSubmitRequest(data []byte, lim Limits) (*SubmitRequest, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: invalid submit payload: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after submit payload")
	}
	if !validTenant(req.Tenant) {
		return nil, fmt.Errorf("serve: invalid tenant %q (want [A-Za-z0-9._-]{1,64})", req.Tenant)
	}
	if req.Priority < PriorityMin || req.Priority > PriorityMax {
		return nil, fmt.Errorf("serve: priority %d out of range [%d, %d]", req.Priority, PriorityMin, PriorityMax)
	}
	if err := req.System.validate(lim); err != nil {
		return nil, err
	}
	if err := req.Spectrum.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (sp *SpectrumSpec) validate() error {
	for _, v := range []float64{sp.FreqMin, sp.FreqMax, sp.FreqStep, sp.Sigma} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("serve: spectrum settings must be finite and non-negative")
		}
	}
	if sp.FreqMax > 0 && sp.FreqMax <= sp.FreqMin {
		return fmt.Errorf("serve: fmax must exceed fmin")
	}
	if sp.LanczosK < 0 || sp.LanczosK > maxLanczosK {
		return fmt.Errorf("serve: lanczos k out of range [0, %d]", maxLanczosK)
	}
	return nil
}

// apply overlays the non-zero settings onto the engine defaults.
func (sp *SpectrumSpec) apply(o *raman.Options) {
	if sp.FreqMin > 0 {
		o.FreqMin = sp.FreqMin
	}
	if sp.FreqMax > 0 {
		o.FreqMax = sp.FreqMax
	}
	if sp.FreqStep > 0 {
		o.FreqStep = sp.FreqStep
	}
	if sp.Sigma > 0 {
		o.Sigma = sp.Sigma
	}
	if sp.LanczosK > 0 {
		o.LanczosK = sp.LanczosK
	}
}

// validate checks the spec's shape and size bounds without building
// anything, so a hostile nx=1e9 is rejected before any allocation.
func (s *SystemSpec) validate(lim Limits) error {
	maxAtoms := lim.MaxAtoms
	if maxAtoms <= 0 {
		maxAtoms = DefaultMaxAtomsPerJob
	}
	for _, v := range s.Origin {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("serve: non-finite origin")
		}
	}
	switch s.Kind {
	case "waterbox":
		if s.NX < 1 || s.NY < 1 || s.NZ < 1 {
			return fmt.Errorf("serve: waterbox dims must be ≥ 1")
		}
		// Compare by division so a hostile nx·ny·nz can never wrap int64:
		// atoms·d > max ⟺ atoms > ⌊max/d⌋ exactly (d ≥ 1), and the
		// multiply only happens once the product is proven ≤ max. The
		// earlier multiply-then-compare version still wrapped for dims
		// near 2^62 (found by fuzzing).
		atoms := int64(3)
		for _, d := range [3]int{s.NX, s.NY, s.NZ} {
			if atoms > int64(maxAtoms)/int64(d) {
				return fmt.Errorf("%w: waterbox %d×%d×%d exceeds the %d-atom limit",
					ErrTooLarge, s.NX, s.NY, s.NZ, maxAtoms)
			}
			atoms *= int64(d)
		}
	case "dimers":
		if s.N < 1 {
			return fmt.Errorf("serve: dimers count must be ≥ 1")
		}
		// Same division form: 6·N wraps int64 for N near 2^62.
		if int64(s.N) > int64(maxAtoms)/6 {
			return fmt.Errorf("%w: %d dimers exceed the %d-atom limit", ErrTooLarge, s.N, maxAtoms)
		}
	case "text":
		maxText := lim.MaxTextBytes
		if maxText <= 0 {
			maxText = DefaultMaxTextBytes
		}
		if s.Text == "" {
			return fmt.Errorf("serve: empty structure text")
		}
		if len(s.Text) > maxText {
			return fmt.Errorf("%w: structure text is %d bytes, limit %d", ErrTooLarge, len(s.Text), maxText)
		}
	default:
		return fmt.Errorf("serve: unknown system kind %q", s.Kind)
	}
	return nil
}

// Build materializes the system and re-validates it end to end: element
// sanity, finite coordinates, and the atom-count limit (the text format can
// smuggle what validate couldn't see).
func (s *SystemSpec) Build(lim Limits) (*structure.System, error) {
	if err := s.validate(lim); err != nil {
		return nil, err
	}
	maxAtoms := lim.MaxAtoms
	if maxAtoms <= 0 {
		maxAtoms = DefaultMaxAtomsPerJob
	}
	var sys *structure.System
	switch s.Kind {
	case "waterbox":
		sys = structure.BuildWaterBox(s.NX, s.NY, s.NZ, geom.V(s.Origin[0], s.Origin[1], s.Origin[2]))
	case "dimers":
		sys = structure.BuildWaterDimerSystem(s.N)
	case "text":
		var err error
		sys, err = structure.ReadSystem(strings.NewReader(s.Text))
		if err != nil {
			return nil, fmt.Errorf("serve: structure text: %w", err)
		}
	}
	if sys.NumAtoms() == 0 {
		return nil, fmt.Errorf("serve: system has no atoms")
	}
	if sys.NumAtoms() > maxAtoms {
		return nil, fmt.Errorf("%w: %d atoms, limit %d", ErrTooLarge, sys.NumAtoms(), maxAtoms)
	}
	for _, a := range sys.Atoms {
		for _, v := range []float64{a.Pos.X, a.Pos.Y, a.Pos.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("serve: non-finite atom coordinate")
			}
		}
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("serve: invalid system: %w", err)
	}
	return sys, nil
}

// JobState is the lifecycle of one submission.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// ReportSummary is the service-level digest of a finished (or running)
// job's scheduler report, including the cross-job dedup accounting the
// shared store makes possible.
type ReportSummary struct {
	Fragments   int `json:"fragments"`
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	Resumed     int `json:"resumed"`
	Deduped     int `json:"deduped"`
	// CrossJobHits counts this job's fragments served from shared-store
	// records it did not compute — work inherited from other jobs (any
	// tenant) or previous daemon runs; the scheduler's Resumed.
	CrossJobHits int `json:"cross_job_hits"`
	// CrossTenantHits is the subset of CrossJobHits produced by a
	// *different* tenant within this daemon's lifetime.
	CrossTenantHits int     `json:"cross_tenant_hits"`
	Retries         int     `json:"retries"`
	Requeues        int     `json:"requeues"`
	Panics          int     `json:"panics"`
	Degraded        bool    `json:"degraded"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

// SpectrumPayload is the wire form of a computed spectrum.
type SpectrumPayload struct {
	Freq      []float64 `json:"freq"`
	Intensity []float64 `json:"intensity"`
}

// Job is one submission moving through the queue and the shared scheduler.
type Job struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	seq      int64  // FIFO tiebreak within a tenant+priority

	req *SubmitRequest
	sys *structure.System

	// cancel is the job-scoped run handle: closed exactly once to kill the
	// job whether queued or mid-run (sched.Options.Cancel).
	cancel     chan struct{}
	cancelOnce sync.Once

	mu         sync.Mutex
	state      JobState
	finalized  bool // inputs released + retention bookkeeping done
	errMsg     string
	submitted  time.Time
	started    time.Time
	finished   time.Time
	fragsTotal int
	queueDepth *obs.Gauge // labeled sched_queue_depth handle, set at run start
	report     *ReportSummary
	spectrum   *SpectrumPayload
}

// Cancel closes the job's run handle (idempotent).
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// Status is the wire form of GET /jobs/{id}.
type Status struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Priority int      `json:"priority"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`

	SubmittedAt string  `json:"submitted_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`

	// FragmentsTotal/Done stream progress while running: Done is total
	// minus the job's labeled sched_queue_depth gauge.
	FragmentsTotal int `json:"fragments_total,omitempty"`
	FragmentsDone  int `json:"fragments_done,omitempty"`

	Report   *ReportSummary   `json:"report,omitempty"`
	Spectrum *SpectrumPayload `json:"spectrum,omitempty"`
}

// status snapshots the job under its lock. withSpectrum controls whether
// the (possibly large) spectrum arrays ride along.
func (j *Job) status(withSpectrum bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		Tenant:      j.Tenant,
		Priority:    j.Priority,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedAt: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		st.WaitSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	st.FragmentsTotal = j.fragsTotal
	if j.fragsTotal > 0 {
		switch j.state {
		case JobDone:
			st.FragmentsDone = j.fragsTotal
		case JobRunning:
			if remaining := j.queueDepth.Value(); remaining >= 0 && int(remaining) <= j.fragsTotal {
				st.FragmentsDone = j.fragsTotal - int(remaining)
			}
		}
	}
	st.Report = j.report
	if withSpectrum {
		st.Spectrum = j.spectrum
	}
	return st
}
