package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/store"
	"qframan/internal/structure"
)

// Default admission settings; Config zero values select them.
const (
	DefaultMaxAtomsPerJob  = 20000
	DefaultMaxTextBytes    = 8 << 20
	DefaultMaxQueuedJobs   = 64
	DefaultRunners         = 2
	DefaultRetryAfter      = 2 * time.Second
	DefaultMaxInflightFrag = 8
	DefaultMaxFinishedJobs = 512
	DefaultMaxLedgerKeys   = 1 << 16
)

// Daemon-level metric names (per-job scheduler metrics carry job/tenant
// labels on the internal/sched names instead).
const (
	MetricJobsSubmitted  = "serve_jobs_submitted_total"
	MetricJobsRejected   = "serve_jobs_rejected_total"
	MetricJobsDone       = "serve_jobs_done_total"
	MetricJobsFailed     = "serve_jobs_failed_total"
	MetricJobsCancelled  = "serve_jobs_cancelled_total"
	MetricJobSeconds     = "serve_job_seconds"
	MetricQueueDepth     = "serve_queue_depth"
	MetricInflightFrags  = "serve_inflight_fragments"
	MetricCrossJobHits   = "serve_cross_job_hits_total"
	MetricCrossTenantHit = "serve_cross_tenant_hits_total"
)

// Config wires a Server.
type Config struct {
	// Store is the shared content-addressed fragment store. All jobs run
	// against it, so overlapping systems — same waterbox submitted by two
	// tenants, re-submissions after a crash — share fragment results. With
	// nil nothing is shared across jobs; a job still computes each of its
	// content classes once.
	Store *store.Store
	// Registry receives daemon metrics and the per-job labeled scheduler
	// series; nil allocates a private one.
	Registry *obs.Registry

	// Tenants maps tenant name → fair-share weight; unlisted tenants get
	// DefaultWeight (min 1).
	Tenants       map[string]int
	DefaultWeight int

	// Admission control: bounded queue depth (global and per tenant) and
	// per-job system size. Hitting a queue bound returns 429 +
	// Retry-After; an oversized system returns 413. Zero values pick the
	// package defaults; negative values mean unbounded.
	MaxQueuedJobs      int
	MaxQueuedPerTenant int
	MaxAtomsPerJob     int
	MaxTextBytes       int
	RetryAfter         time.Duration

	// MaxFinishedJobs bounds how many terminal jobs (done/failed/
	// cancelled) stay queryable through GET /jobs/{id}. Beyond it the
	// oldest-finished jobs are evicted from the index, so a long-lived
	// daemon under sustained load holds a bounded set of reports and
	// spectra rather than every job it ever ran. Terminal jobs also drop
	// their inputs (request + system geometry) immediately. Zero picks
	// DefaultMaxFinishedJobs; negative means retain forever.
	MaxFinishedJobs int
	// MaxLedgerKeys bounds the key→tenant attribution ledger behind the
	// cross-tenant dedup counters. Past the cap, arbitrary entries are
	// evicted: CrossTenantHits degrades to a lower bound while memory
	// stays bounded. Zero picks DefaultMaxLedgerKeys; negative means
	// unbounded.
	MaxLedgerKeys int

	// Runners is the number of jobs executing concurrently.
	Runners int
	// MaxInflightFragments bounds fragment attempts in flight across ALL
	// running jobs — the service-level backpressure valve in front of the
	// per-fragment kernel parallelism that internal/par's token budget
	// arbitrates. Zero picks the default; negative means unbounded.
	MaxInflightFragments int

	// NumLeaders sizes each job's scheduler runtime; zero keeps
	// sched.DefaultOptions.
	NumLeaders int
	// Fragment controls decomposition; the zero value selects
	// fragment.DefaultOptions.
	Fragment fragment.Options
	// Raman is the spectrum default each job's SpectrumSpec overlays; the
	// zero value selects raman.DefaultOptions.
	Raman raman.Options

	// Process overrides the fragment engine (tests, custom backends); nil
	// selects sched.DefaultProcess, the real SCF+DFPT pipeline.
	Process sched.ProcessFunc
	// Backend, when non-nil, replaces every job's in-process fragment
	// loop with a pluggable dispatch backend (e.g. cluster.NewClient to
	// fan fragments out to a qfcoord cluster). Results stay bit-identical
	// by the backend contract; Process and MaxInflightFragments do not
	// apply to backend-dispatched jobs.
	Backend sched.Backend
	// SkipSpectrum stops jobs after the fragment loop: no Hessian
	// assembly, no spectrum. Test engines producing synthetic
	// FragmentData use it; the report and dedup accounting still flow.
	SkipSpectrum bool
}

func (c *Config) fillDefaults() {
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.DefaultWeight < 1 {
		c.DefaultWeight = 1
	}
	if c.MaxQueuedJobs == 0 {
		c.MaxQueuedJobs = DefaultMaxQueuedJobs
	}
	if c.MaxQueuedPerTenant == 0 {
		c.MaxQueuedPerTenant = c.MaxQueuedJobs
	}
	if c.MaxAtomsPerJob == 0 {
		c.MaxAtomsPerJob = DefaultMaxAtomsPerJob
	}
	if c.MaxTextBytes == 0 {
		c.MaxTextBytes = DefaultMaxTextBytes
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = DefaultRetryAfter
	}
	if c.MaxFinishedJobs == 0 {
		c.MaxFinishedJobs = DefaultMaxFinishedJobs
	}
	if c.MaxLedgerKeys == 0 {
		c.MaxLedgerKeys = DefaultMaxLedgerKeys
	}
	if c.Runners < 1 {
		c.Runners = DefaultRunners
	}
	if c.MaxInflightFragments == 0 {
		c.MaxInflightFragments = DefaultMaxInflightFrag
	}
	if c.Fragment.LambdaRR == 0 {
		c.Fragment = fragment.DefaultOptions()
	}
	if c.Raman.FreqStep == 0 {
		c.Raman = raman.DefaultOptions()
	}
}

// Server is the job-queue daemon.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	fragGate chan struct{} // nil = unbounded

	mu       sync.Mutex
	cond     *sync.Cond
	queue    *fairQueue
	jobs     map[string]*Job
	running  map[string]*Job
	finished []*Job               // terminal jobs, oldest first, for bounded retention
	ledger   map[store.Key]string // key → tenant that first produced it (this daemon's lifetime)
	seq      int64
	draining bool
	closed   bool
	started  time.Time

	runnerWG sync.WaitGroup

	submitted, done, failed, cancelled, rejected int64
}

// New builds a Server and starts its runner pool.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		queue:   newFairQueue(cfg.Tenants, cfg.DefaultWeight, cfg.MaxQueuedJobs, cfg.MaxQueuedPerTenant),
		jobs:    make(map[string]*Job),
		running: make(map[string]*Job),
		ledger:  make(map[store.Key]string),
		started: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.MaxInflightFragments > 0 {
		s.fragGate = make(chan struct{}, cfg.MaxInflightFragments)
	}
	if cfg.Store != nil {
		cfg.Store.SetObs(obs.NewScope(nil, s.reg))
	}
	for i := 0; i < cfg.Runners; i++ {
		s.runnerWG.Add(1)
		go s.runner()
	}
	return s
}

// newJobID returns "j<seq>-<96 random bits>". The sequence number keeps
// logs and metric labels readable; the random suffix makes IDs
// unguessable, so holding a job's ID is the capability to read or cancel
// it — a tenant cannot enumerate or interfere with jobs it didn't submit.
func newJobID(seq int64) string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: crypto/rand unavailable: " + err.Error())
	}
	return fmt.Sprintf("j%d-%s", seq, hex.EncodeToString(b[:]))
}

// Submit admits a parsed request whose system already built. It returns
// the queued job or an admission error (ErrQueueFull / ErrTenantQueueFull /
// ErrDraining).
func (s *Server) Submit(req *SubmitRequest, sys *structure.System) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return nil, ErrDraining
	}
	s.seq++
	j := &Job{
		ID:        newJobID(s.seq),
		Tenant:    req.Tenant,
		Priority:  req.Priority,
		seq:       s.seq,
		req:       req,
		sys:       sys,
		cancel:    make(chan struct{}),
		state:     JobQueued,
		submitted: time.Now(),
	}
	if err := s.queue.push(j); err != nil {
		s.rejected++
		reason := "queue_full"
		if err == ErrTenantQueueFull {
			reason = "tenant_full"
		}
		s.reg.WithLabel("reason", reason).Counter(MetricJobsRejected).Inc()
		return nil, err
	}
	s.jobs[j.ID] = j
	s.submitted++
	s.reg.Counter(MetricJobsSubmitted).Inc()
	s.reg.Gauge(MetricQueueDepth).Set(int64(s.queue.depth()))
	s.cond.Signal()
	return j, nil
}

// ErrDraining rejects submissions during shutdown (503).
var ErrDraining = errDraining{}

type errDraining struct{}

func (errDraining) Error() string { return "serve: daemon is draining" }

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// finalizeJob runs once per job as it reaches a terminal state: the inputs
// (request payload, system geometry) are released — status queries only
// need the report and spectrum — and the oldest finished jobs beyond
// MaxFinishedJobs are evicted from the index, so a long-lived daemon's
// memory is bounded by the retention cap, not by how many jobs it has ever
// served.
func (s *Server) finalizeJob(j *Job) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	j.req = nil
	j.sys = nil
	j.mu.Unlock()

	max := s.cfg.MaxFinishedJobs
	s.mu.Lock()
	s.finished = append(s.finished, j)
	if max > 0 {
		for len(s.finished) > max {
			old := s.finished[0]
			s.finished[0] = nil
			s.finished = s.finished[1:]
			delete(s.jobs, old.ID)
		}
	}
	s.mu.Unlock()
}

// enforceLedgerCapLocked evicts arbitrary attribution entries beyond
// MaxLedgerKeys (caller holds s.mu). Cross-tenant hit counts become a
// lower bound once eviction kicks in; memory stays bounded.
func (s *Server) enforceLedgerCapLocked() {
	max := s.cfg.MaxLedgerKeys
	if max <= 0 {
		return
	}
	for k := range s.ledger {
		if len(s.ledger) <= max {
			break
		}
		delete(s.ledger, k)
	}
}

// CancelJob cancels a queued or running job; false if the ID is unknown.
func (s *Server) CancelJob(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	wasQueued := s.queue.remove(j)
	if wasQueued {
		s.reg.Gauge(MetricQueueDepth).Set(int64(s.queue.depth()))
	}
	s.mu.Unlock()

	if wasQueued {
		j.mu.Lock()
		j.state = JobCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		s.mu.Lock()
		s.cancelled++
		s.mu.Unlock()
		s.reg.Counter(MetricJobsCancelled).Inc()
		s.finalizeJob(j)
	}
	// Running (or about-to-run) jobs see the closed handle; queued jobs
	// get it closed too so a racing runner pop is a no-op.
	j.Cancel()
	return true
}

// runner is one slot of the job-execution pool.
func (s *Server) runner() {
	defer s.runnerWG.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			j = s.queue.pop()
			if j != nil {
				break
			}
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
		}
		s.running[j.ID] = j
		s.reg.Gauge(MetricQueueDepth).Set(int64(s.queue.depth()))
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		delete(s.running, j.ID)
		s.mu.Unlock()
	}
}

// gatedProcess wraps the engine with the service-wide in-flight fragment
// budget and the job's cancellation probe. While an attempt holds a gate
// slot, internal/par's token budget arbitrates its kernel width against
// every other in-flight attempt — the gate bounds how many contenders
// exist at once, which is what keeps a burst of jobs from oversubscribing
// memory instead of queueing.
func (s *Server) gatedProcess(j *Job, inner sched.ProcessFunc) sched.ProcessFunc {
	if inner == nil {
		inner = sched.DefaultProcess
	}
	gauge := s.reg.Gauge(MetricInflightFrags)
	return func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
		if s.fragGate != nil {
			select {
			case s.fragGate <- struct{}{}:
				defer func() { <-s.fragGate }()
			case <-j.cancel:
				return nil, fmt.Errorf("fragment %d: %w", f.ID, sched.ErrCancelled)
			}
		}
		gauge.Add(1)
		defer gauge.Add(-1)
		return inner(f, opt)
	}
}

// runJob executes one job end to end.
func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	select {
	case <-j.cancel: // cancelled between pop and here
		j.state = JobCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		s.countFinish(JobCancelled)
		s.finalizeJob(j)
		return
	default:
	}
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	sum, spec, err := s.execute(j)

	j.mu.Lock()
	j.finished = time.Now()
	if sum != nil {
		sum.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		j.report = sum
	}
	var final JobState
	switch {
	case err == nil:
		final = JobDone
		j.spectrum = spec
	case isCancelled(err):
		final = JobCancelled
	default:
		final = JobFailed
		j.errMsg = err.Error()
	}
	j.state = final
	run := j.finished.Sub(j.started)
	j.mu.Unlock()
	s.countFinish(final)
	s.finalizeJob(j)
	s.reg.Histogram(MetricJobSeconds, obs.DurationBuckets).Observe(run.Seconds())
}

func isCancelled(err error) bool {
	return err != nil && errors.Is(err, sched.ErrCancelled)
}

// execute runs decomposition, the shared-store scheduler, and (unless
// configured away) assembly + spectrum. It returns the service report
// digest even on failure when one is available.
func (s *Server) execute(j *Job) (*ReportSummary, *SpectrumPayload, error) {
	dec, err := fragment.Decompose(j.sys, s.cfg.Fragment)
	if err != nil {
		return nil, nil, fmt.Errorf("decompose: %w", err)
	}

	opt := sched.DefaultOptions()
	if s.cfg.NumLeaders > 0 {
		opt.NumLeaders = s.cfg.NumLeaders
	}
	opt.Job.SkipAlpha = j.req.HessianOnly
	opt.Cancel = j.cancel
	opt.Process = s.gatedProcess(j, s.cfg.Process)
	opt.Cache = sched.CacheOptions{Store: s.cfg.Store, Resume: true}
	opt.Backend = s.cfg.Backend
	jobReg := s.reg.WithLabel("job", j.ID).WithLabel("tenant", j.Tenant)
	opt.Obs = obs.NewScope(nil, jobReg)

	j.mu.Lock()
	j.fragsTotal = len(dec.Fragments)
	j.queueDepth = jobReg.Gauge(obs.MetricQueueDepth)
	j.mu.Unlock()

	var rep *sched.Report
	var spec *SpectrumPayload
	if s.cfg.SkipSpectrum {
		_, rep, err = sched.Run(dec, opt)
	} else {
		ropt := s.cfg.Raman
		j.req.Spectrum.apply(&ropt)
		cfg := core.Config{
			Fragment: s.cfg.Fragment,
			Sched:    opt,
			Raman:    ropt,
		}
		var res *core.Result
		res, err = core.ComputeRamanDecomposed(j.sys, dec, cfg)
		if err == nil {
			rep = res.SchedReport
			if res.Spectrum != nil {
				spec = &SpectrumPayload{Freq: res.Spectrum.Freq, Intensity: res.Spectrum.Intensity}
			}
		}
	}

	if rep == nil {
		return nil, nil, err
	}
	crossTenant := s.attribute(rep, j.Tenant)
	sum := &ReportSummary{
		Fragments:       len(dec.Fragments),
		CacheHits:       rep.CacheHits,
		CacheMisses:     rep.CacheMisses,
		Resumed:         rep.Resumed,
		Deduped:         rep.Deduped,
		CrossJobHits:    rep.Resumed,
		CrossTenantHits: crossTenant,
		Retries:         rep.Retries,
		Requeues:        rep.Requeues,
		Panics:          rep.Panics,
		Degraded:        rep.Degraded,
	}
	s.reg.Counter(MetricCrossJobHits).Add(int64(rep.Resumed))
	s.reg.Counter(MetricCrossTenantHit).Add(int64(crossTenant))
	return sum, spec, err
}

// attribute settles a finished run's share of the tenant ledger from its
// report: it returns how many fragments the run was served from records
// another tenant produced in this daemon's lifetime, and files the classes
// the run computed under tenant unless an earlier job already owns them.
func (s *Server) attribute(rep *sched.Report, tenant string) (crossTenant int) {
	if s.cfg.Store == nil {
		return 0
	}
	cls := rep.Classes
	s.mu.Lock()
	defer s.mu.Unlock()
	for c, r := range cls.Reps {
		k := cls.Keys[r]
		owner, owned := s.ledger[k]
		switch {
		case rep.Sources[c] == sched.Stored && owned && owner != tenant:
			crossTenant += len(cls.Members[r])
		case rep.Sources[c] == sched.Computed && !owned:
			s.ledger[k] = tenant
		}
	}
	s.enforceLedgerCapLocked()
	return crossTenant
}

func (s *Server) countFinish(st JobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st {
	case JobDone:
		s.done++
		s.reg.Counter(MetricJobsDone).Inc()
	case JobFailed:
		s.failed++
		s.reg.Counter(MetricJobsFailed).Inc()
	case JobCancelled:
		s.cancelled++
		s.reg.Counter(MetricJobsCancelled).Inc()
	}
}

// Drain performs the graceful shutdown: stop admitting, let the runners
// finish every queued and running job, and — if the grace period expires
// first — cancel whatever is left. It returns nil when the drain was fully
// graceful.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() { s.runnerWG.Wait(); close(idle) }()
	select {
	case <-idle:
		return nil
	case <-time.After(grace):
	}

	// Grace expired: cancel queued jobs, then kill running ones.
	s.mu.Lock()
	var stranded []*Job
	for {
		j := s.queue.pop()
		if j == nil {
			break
		}
		stranded = append(stranded, j)
	}
	runningNow := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		runningNow = append(runningNow, j)
	}
	s.mu.Unlock()
	for _, j := range stranded {
		j.mu.Lock()
		j.state = JobCancelled
		j.finished = time.Now()
		j.mu.Unlock()
		j.Cancel()
		s.countFinish(JobCancelled)
		s.finalizeJob(j)
	}
	for _, j := range runningNow {
		j.Cancel()
	}
	<-idle
	return fmt.Errorf("serve: drain grace period expired; cancelled %d queued and %d running jobs",
		len(stranded), len(runningNow))
}

// Close force-stops the runner pool without waiting for queued work. Jobs
// already running are cancelled.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	for _, j := range s.running {
		j.Cancel()
	}
	s.mu.Unlock()
	s.runnerWG.Wait()
}

// DaemonStatus is the wire form of GET /status.
type DaemonStatus struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Runners       int     `json:"runners"`
	QueueDepth    int     `json:"queue_depth"`
	// Running is a count, not a job-ID list: IDs are per-submitter
	// capabilities and must not be enumerable through /status.
	Running int            `json:"running"`
	Tenants []TenantStatus `json:"tenants"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsRejected  int64 `json:"jobs_rejected"`

	Store *StoreStatus `json:"store,omitempty"`
}

// StoreStatus summarizes the shared store for /status.
type StoreStatus struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

func (s *Server) statusSnapshot() DaemonStatus {
	s.mu.Lock()
	ds := DaemonStatus{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining,
		Runners:       s.cfg.Runners,
		QueueDepth:    s.queue.depth(),
		Running:       len(s.running),
		Tenants:       s.queue.depths(),
		JobsSubmitted: s.submitted,
		JobsDone:      s.done,
		JobsFailed:    s.failed,
		JobsCancelled: s.cancelled,
		JobsRejected:  s.rejected,
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		ds.Store = &StoreStatus{Objects: st.Objects, Bytes: st.Bytes}
	}
	return ds
}

// Handler returns the daemon's HTTP surface:
//
//	POST   /jobs      submit (202, or 400/413/429/503)
//	GET    /jobs/{id} job status; ?spectrum=1 includes the spectrum arrays
//	DELETE /jobs/{id} cancel
//
// Job IDs are unguessable capabilities returned only to the submitter.
// When a request presents a tenant identity (X-Tenant header or ?tenant=,
// typically injected by an authenticating front proxy), it must match the
// job's owner; mismatches 404 like unknown IDs.
//
//	GET    /status    daemon + tenant + store summary
//	GET    /metrics   text metrics dump (labeled per-job series included)
//	GET    /healthz   liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// SubmitResponse is the wire form of a successful POST /jobs.
type SubmitResponse struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	QueueDepth int      `json:"queue_depth"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxTextBytes)+4096))
	if err != nil {
		// Only the byte-limit breach is 413; an aborted upload or other
		// read error is the client's 400, not an admission rejection.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.reject(w, http.StatusRequestEntityTooLarge, "request body too large", "too_large")
		} else {
			s.reject(w, http.StatusBadRequest, "failed to read request body", "read_error")
		}
		return
	}
	lim := Limits{MaxAtoms: s.cfg.MaxAtomsPerJob, MaxTextBytes: s.cfg.MaxTextBytes}
	req, err := ParseSubmitRequest(body, lim)
	if err != nil {
		s.rejectErr(w, err)
		return
	}
	sys, err := req.System.Build(lim)
	if err != nil {
		s.rejectErr(w, err)
		return
	}
	j, err := s.Submit(req, sys)
	if err != nil {
		s.rejectErr(w, err)
		return
	}
	s.mu.Lock()
	depth := s.queue.depth()
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: j.ID, State: JobQueued, QueueDepth: depth})
}

// rejectErr maps a submit error to its status code. 429 responses carry
// Retry-After so well-behaved clients back off instead of hammering.
func (s *Server) rejectErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.999)))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, ErrTooLarge):
		s.reject(w, http.StatusRequestEntityTooLarge, err.Error(), "too_large")
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.999)))
		s.reject(w, http.StatusServiceUnavailable, err.Error(), "draining")
	default:
		s.reject(w, http.StatusBadRequest, err.Error(), "invalid")
	}
}

func (s *Server) reject(w http.ResponseWriter, code int, msg, reason string) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	s.reg.WithLabel("reason", reason).Counter(MetricJobsRejected).Inc()
	writeJSON(w, code, errorResponse{Error: msg})
}

// requesterTenant is the caller identity an authenticating front proxy
// injects (X-Tenant header, or ?tenant= for curl-grade clients). Job IDs
// are already unguessable capabilities; when a deployment authenticates
// tenants at the edge, this adds hard scoping on top — a presented
// identity must own the job.
func requesterTenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// authorizedJob resolves {id} under the tenant scope. A mismatch is
// reported exactly like an unknown ID so the endpoint is not an existence
// oracle for other tenants' jobs.
func (s *Server) authorizedJob(r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		return nil, false
	}
	if t := requesterTenant(r); t != "" && t != j.Tenant {
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.authorizedJob(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	withSpectrum := r.URL.Query().Get("spectrum") == "1"
	writeJSON(w, http.StatusOK, j.status(withSpectrum))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.authorizedJob(r)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	if !s.CancelJob(j.ID) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statusSnapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.Snapshot().WriteText(w)
}
