package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"qframan/internal/constants"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/store"
)

// CoordConfig configures a coordinator.
type CoordConfig struct {
	// Store is the coordinator's content-addressed cache tier; nil
	// disables it (every fragment is computed or served worker-locally).
	Store *store.Store
	// LeaseTimeout requeues tasks leased longer than this without a
	// result, so another worker can take them; the straggler's late result
	// still counts if it arrives first. Zero selects 2 minutes.
	LeaseTimeout time.Duration
	// HeartbeatTimeout declares a silent worker dead and requeues its
	// leases. Zero selects 15 seconds.
	HeartbeatTimeout time.Duration
	// MaxTaskRetries bounds transient failures per task before the owning
	// job fails. Zero selects 3.
	MaxTaskRetries int
	// MaxPayload bounds inbound frame payloads (0 = DefaultMaxPayload).
	MaxPayload int
	// Registry receives the cluster metrics (nil disables).
	Registry *obs.Registry
	// Injector, when non-nil, applies chaos to outbound frames on worker
	// connections (never client connections: result delivery to clients
	// rides TCP's own guarantees; a truly dead client link fails the job,
	// which is the correct semantic).
	Injector FrameInjector
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// task lifecycle states. There is no terminal one: a task that is served, or
// abandoned because its client left or its job failed, is retired
// (retireLocked) — the coordinator holds tasks only while they are work in
// flight.
const (
	taskPending = iota // queued, waiting for a worker slot
	taskLeased         // owned by a worker until its lease expires
	taskWaiting        // parked: an identical key is already in flight
)

// task is one unique fragment the coordinator must resolve.
type task struct {
	id     uint64
	client uint64 // owning client session
	job    uint64
	frag   uint32
	key    store.Key
	els    []constants.Element
	pos    []geom.Vec3
	opt    hessian.JobOptions

	state    int
	owner    uint64 // worker session while leased
	leasedAt time.Time
	fails    int
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	session  uint64
	name     string
	slots    int
	tr       *transport
	inflight map[uint64]struct{}
	lastSeen time.Time
	frags    int // completed fragments
	fragsCtr *obs.Counter
}

// jobState tracks one client job's progress and per-tier accounting. It is
// dropped with its JOB_DONE — or, for a job that failed while its client was
// still announcing fragments, with the last FRAG (handleFrag discards those).
type jobState struct {
	id        uint64
	nfrags    uint32
	announced uint32
	done      uint32
	failed    bool // error JOB_DONE sent; FRAGs still to come are discarded
	opt       hessian.JobOptions

	computed, localHits, coordHits, reassigns uint32
}

// clientConn is the coordinator's view of one connected client.
type clientConn struct {
	session  uint64
	name     string
	tr       *transport
	jobs     map[uint64]*jobState
	lastSeen time.Time
}

// coordCounters mirrors the cluster metrics for the STATS snapshot (the
// registry may be absent).
type coordCounters struct {
	leases, reassigns, dupResults, taskFails uint64
	localHits, coordHits, computed           uint64
	jobsDone, jobsFailed, tasksDone          uint64
}

// send is one outbound frame computed under the coordinator lock and
// written after it is released (transports may block; the lock must not).
type send struct {
	tr      *transport
	mt      MsgType
	payload []byte
}

// Coordinator owns fragment assignment: it accepts worker and client
// connections, leases tasks, reassigns on lease expiry and worker death,
// keeps the first result for a live task and drops the rest, and layers its
// content-addressed store over the workers' as the cluster-wide cache.
type Coordinator struct {
	cfg CoordConfig

	mu       sync.Mutex
	closed   bool
	stop     chan struct{} // closed by Close, with closed, to end the reaper
	ln       net.Listener
	workers  map[uint64]*workerConn
	clients  map[uint64]*clientConn
	tasks    map[uint64]*task
	queue    []uint64
	inflight map[store.Key]uint64   // key → producing task
	waiters  map[store.Key][]uint64 // tasks parked on an in-flight key
	nextSess uint64
	nextTask uint64
	stats    coordCounters
	wg       sync.WaitGroup

	mWorkers   *obs.Gauge
	mLeases    *obs.Counter
	mReassigns *obs.Counter
	mDup       *obs.Counter
	mLocal     *obs.Counter
	mCoord     *obs.Counter
	mRecomp    *obs.Counter
	mFails     *obs.Counter
	mLeaseSec  *obs.Histogram
}

// NewCoordinator builds a coordinator; call Serve to start it.
func NewCoordinator(cfg CoordConfig) *Coordinator {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 15 * time.Second
	}
	if cfg.MaxTaskRetries <= 0 {
		cfg.MaxTaskRetries = 3
	}
	co := &Coordinator{
		cfg:      cfg,
		stop:     make(chan struct{}),
		workers:  make(map[uint64]*workerConn),
		clients:  make(map[uint64]*clientConn),
		tasks:    make(map[uint64]*task),
		inflight: make(map[store.Key]uint64),
		waiters:  make(map[store.Key][]uint64),
	}
	if r := cfg.Registry; r != nil {
		co.mWorkers = r.Gauge(obs.MetricClusterWorkers)
		co.mLeases = r.Counter(obs.MetricClusterLeases)
		co.mReassigns = r.Counter(obs.MetricClusterReassigns)
		co.mDup = r.Counter(obs.MetricClusterDupResults)
		co.mLocal = r.Counter(obs.MetricClusterLocalHits)
		co.mCoord = r.Counter(obs.MetricClusterCoordHits)
		co.mRecomp = r.Counter(obs.MetricClusterRecomputes)
		co.mFails = r.Counter(obs.MetricClusterTaskFails)
		co.mLeaseSec = r.Histogram(obs.MetricClusterLeaseSeconds, obs.DurationBuckets)
		if cfg.Store != nil {
			cfg.Store.SetObs(obs.Scope{R: r})
		}
	}
	return co
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// ListenAndServe binds addr and serves until Close.
func (co *Coordinator) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return co.Serve(ln)
}

// Serve accepts connections on ln until Close. It blocks.
func (co *Coordinator) Serve(ln net.Listener) error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		ln.Close()
		return errors.New("cluster: coordinator closed")
	}
	co.ln = ln
	co.mu.Unlock()

	co.wg.Add(1)
	go co.reaper()

	for {
		c, err := ln.Accept()
		if err != nil {
			co.mu.Lock()
			closed := co.closed
			co.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		co.wg.Add(1)
		go co.handleConn(c)
	}
}

// Addr returns the bound listen address (nil before Serve).
func (co *Coordinator) Addr() net.Addr {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ln == nil {
		return nil
	}
	return co.ln.Addr()
}

// Close stops the coordinator: the listener and every connection are
// closed and the handler goroutines drained.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	close(co.stop)
	ln := co.ln
	var conns []*transport
	for _, w := range co.workers {
		conns = append(conns, w.tr)
	}
	for _, cl := range co.clients {
		conns = append(conns, cl.tr)
	}
	co.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, tr := range conns {
		tr.close()
	}
	co.wg.Wait()
	return nil
}

func (co *Coordinator) flush(sends []send) {
	for _, s := range sends {
		if err := s.tr.write(s.mt, s.payload); err != nil {
			// The reader goroutine of that connection observes the
			// failure and runs the drop path; nothing to do here.
			co.logf("cluster: coord: send %s failed: %v", s.mt, err)
		}
	}
}

// persistAll checkpoints a batch of results under one group commit, outside
// the coordinator lock (the store has its own).
func (co *Coordinator) persistAll(ps []store.RawRecord) {
	if co.cfg.Store == nil || len(ps) == 0 {
		return
	}
	if err := co.cfg.Store.PutRaws(ps); err != nil {
		co.logf("cluster: coord: checkpoint of %d records: %v", len(ps), err)
	}
}

// handleConn performs the handshake and enters the role loop.
func (co *Coordinator) handleConn(c net.Conn) {
	defer co.wg.Done()
	tr := newTransport(c, co.cfg.MaxPayload, co.cfg.Registry)
	tr.setReadDeadline(time.Now().Add(10 * time.Second))
	f, err := tr.read()
	if err != nil || f.Type != MsgHello {
		tr.close()
		return
	}
	hello, err := decodeHello(f.Payload)
	if err != nil {
		tr.close()
		return
	}
	if hello.Proto != ProtoVersion {
		tr.write(MsgReject, Reject{Code: RejectVersion, Reason: fmt.Sprintf(
			"protocol version %d not supported (coordinator speaks %d)",
			hello.Proto, ProtoVersion)}.encode())
		tr.close()
		return
	}
	switch hello.Role {
	case RoleWorker:
		co.runWorker(tr, hello)
	case RoleClient:
		co.runClient(tr, hello)
	default:
		tr.write(MsgReject, Reject{Reason: fmt.Sprintf("unknown role %d", hello.Role)}.encode())
		tr.close()
		return
	}
}

// handshake dials addr and performs the HELLO/WELCOME exchange for a peer
// (worker or client), mapping REJECT to the typed errors.
func handshake(addr string, hello Hello, dialTimeout time.Duration, maxPayload int, reg *obs.Registry) (*transport, Welcome, error) {
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, Welcome{}, err
	}
	tr := newTransport(c, maxPayload, reg)
	if err := tr.write(MsgHello, hello.encode()); err != nil {
		tr.close()
		return nil, Welcome{}, err
	}
	tr.setReadDeadline(time.Now().Add(10 * time.Second))
	f, err := tr.read()
	if err != nil {
		tr.close()
		return nil, Welcome{}, err
	}
	switch f.Type {
	case MsgWelcome:
		wel, err := decodeWelcome(f.Payload)
		if err != nil {
			tr.close()
			return nil, Welcome{}, err
		}
		if wel.Proto != ProtoVersion {
			tr.close()
			return nil, Welcome{}, fmt.Errorf("%w: coordinator speaks %d, we speak %d",
				ErrVersionSkew, wel.Proto, ProtoVersion)
		}
		tr.setReadDeadline(time.Time{})
		return tr, wel, nil
	case MsgReject:
		rej, derr := decodeReject(f.Payload)
		tr.close()
		if derr != nil {
			return nil, Welcome{}, derr
		}
		if rej.Code == RejectVersion {
			return nil, Welcome{}, fmt.Errorf("%w: %s", ErrVersionSkew, rej.Reason)
		}
		return nil, Welcome{}, fmt.Errorf("%w: %s", ErrRejected, rej.Reason)
	default:
		tr.close()
		return nil, Welcome{}, fmt.Errorf("%w: %s during handshake", ErrProtocol, f.Type)
	}
}

func (co *Coordinator) runWorker(tr *transport, hello Hello) {
	if co.cfg.Injector != nil {
		tr.inj = co.cfg.Injector
	}
	slots := int(hello.Slots)
	if slots <= 0 {
		slots = 1
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		tr.close()
		return
	}
	co.nextSess++
	w := &workerConn{
		session:  co.nextSess,
		name:     hello.Name,
		slots:    slots,
		tr:       tr,
		inflight: make(map[uint64]struct{}),
		lastSeen: time.Now(),
	}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", w.session)
	}
	if r := co.cfg.Registry; r != nil {
		w.fragsCtr = r.WithLabel("worker", w.name).Counter(obs.MetricClusterWorkerFrags)
	}
	co.workers[w.session] = w
	if co.mWorkers != nil {
		co.mWorkers.Set(int64(len(co.workers)))
	}
	sends := []send{{tr, MsgWelcome, Welcome{Proto: ProtoVersion, Session: w.session}.encode()}}
	sends = append(sends, co.dispatch()...)
	co.mu.Unlock()
	co.logf("cluster: coord: worker %q connected (session %d, %d slots)", w.name, w.session, slots)
	co.flush(sends)

	for {
		tr.setReadDeadline(time.Now().Add(3 * co.cfg.HeartbeatTimeout))
		f, err := tr.read()
		if err != nil {
			co.dropWorker(w, err.Error())
			return
		}
		switch f.Type {
		case MsgResult:
			res, err := decodeResult(f.Payload)
			if err != nil {
				co.dropWorker(w, err.Error())
				return
			}
			co.handleResult(w, res)
		case MsgTaskFail:
			tf, err := decodeTaskFail(f.Payload)
			if err != nil {
				co.dropWorker(w, err.Error())
				return
			}
			co.handleTaskFail(w, tf)
		case MsgHeartbeat:
			co.mu.Lock()
			w.lastSeen = time.Now()
			co.mu.Unlock()
		case MsgBye:
			co.dropWorker(w, "bye")
			return
		default:
			co.dropWorker(w, fmt.Sprintf("unexpected %s from worker", f.Type))
			return
		}
	}
}

// dropWorker removes a worker and requeues the leases it still owns — the
// core of surviving worker death and network partitions. Its inflight set
// may also hold tasks whose lease expired and went to another worker; those
// stay with their new owner.
func (co *Coordinator) dropWorker(w *workerConn, reason string) {
	co.mu.Lock()
	if _, ok := co.workers[w.session]; !ok {
		co.mu.Unlock()
		return
	}
	delete(co.workers, w.session)
	if co.mWorkers != nil {
		co.mWorkers.Set(int64(len(co.workers)))
	}
	requeued := 0
	for id := range w.inflight {
		if t := co.tasks[id]; t != nil && t.state == taskLeased && t.owner == w.session {
			co.requeueLocked(t)
			requeued++
		}
	}
	sends := co.dispatch()
	co.mu.Unlock()
	w.tr.close()
	co.logf("cluster: coord: worker %q gone (%s), %d leases requeued", w.name, reason, requeued)
	co.flush(sends)
}

// requeueLocked puts a leased task back on the queue. Caller holds co.mu.
func (co *Coordinator) requeueLocked(t *task) {
	t.state = taskPending
	t.owner = 0
	co.stats.reassigns++
	if co.mReassigns != nil {
		co.mReassigns.Inc()
	}
	if js := co.jobOf(t); js != nil {
		js.reassigns++
	}
	co.queue = append(co.queue, t.id)
}

func (co *Coordinator) jobOf(t *task) *jobState {
	cl := co.clients[t.client]
	if cl == nil {
		return nil
	}
	return cl.jobs[t.job]
}

// retireLocked forgets a task that was served or abandoned, so the task table
// — and with it the reaper's walk and the per-job scans — is bounded by the
// work in flight rather than by the daemon's lifetime. A late RESULT or
// TASK_FAIL for a retired task finds no entry and is counted as a duplicate
// or ignored. Caller holds co.mu.
func (co *Coordinator) retireLocked(t *task, served bool) {
	if served {
		co.stats.tasksDone++
	}
	delete(co.tasks, t.id)
}

// dispatch leases queued tasks onto free worker slots. Caller holds co.mu;
// returned sends go out after unlock. Workers are scanned in session order
// (deterministic), preferring the most free slots.
func (co *Coordinator) dispatch() []send {
	var sends []send
	for len(co.queue) > 0 {
		// Pop the oldest live pending task.
		t := co.tasks[co.queue[0]]
		if t == nil || t.state != taskPending {
			co.queue = co.queue[1:]
			continue
		}
		var best *workerConn
		for _, w := range co.workers {
			free := w.slots - len(w.inflight)
			if free <= 0 {
				continue
			}
			if best == nil || free > best.slots-len(best.inflight) ||
				(free == best.slots-len(best.inflight) && w.session < best.session) {
				best = w
			}
		}
		if best == nil {
			return sends
		}
		co.queue = co.queue[1:]
		t.state = taskLeased
		t.owner = best.session
		t.leasedAt = time.Now()
		best.inflight[t.id] = struct{}{}
		co.stats.leases++
		if co.mLeases != nil {
			co.mLeases.Inc()
		}
		sends = append(sends, send{best.tr, MsgLease, Lease{
			Task: t.id, Key: t.key, Opt: t.opt,
			Els: t.els, Pos: t.pos,
		}.encode()})
	}
	return sends
}

// handleResult records a completed task, suppresses duplicates, serves
// the owning client and every waiter, checkpoints the blob, and refills
// the freed slot.
func (co *Coordinator) handleResult(w *workerConn, res Result) {
	co.mu.Lock()
	w.lastSeen = time.Now()
	delete(w.inflight, res.Task)
	t := co.tasks[res.Task]
	if t == nil {
		// The first result for a live task wins, whichever worker sent it:
		// it retired the task, so a later one — a straggler whose lease
		// expired racing its replacement — finds no entry and is counted
		// and dropped. Determinism makes every copy bit-identical.
		co.stats.dupResults++
		if co.mDup != nil {
			co.mDup.Inc()
		}
		sends := co.dispatch()
		co.mu.Unlock()
		co.flush(sends)
		return
	}
	if co.mLeaseSec != nil && !t.leasedAt.IsZero() {
		co.mLeaseSec.Observe(time.Since(t.leasedAt).Seconds())
	}
	co.retireLocked(t, true)
	w.frags++
	if w.fragsCtr != nil {
		w.fragsCtr.Inc()
	}
	switch res.Tier {
	case TierLocal:
		co.stats.localHits++
		if co.mLocal != nil {
			co.mLocal.Inc()
		}
	default:
		co.stats.computed++
		if co.mRecomp != nil {
			co.mRecomp.Inc()
		}
	}
	var ps []store.RawRecord
	if co.cfg.Store != nil {
		ps = append(ps, store.RawRecord{Key: t.key, NAtoms: len(t.els), Blob: res.Blob})
	}
	var sends []send
	sends = co.serveTaskLocked(sends, t, res.Tier, res.Blob)
	// Waiters parked on this key: served from the same blob as coord-tier
	// hits (cluster-wide dedup across jobs and clients).
	for _, id := range co.waiters[t.key] {
		tw := co.tasks[id]
		if tw == nil || tw.state != taskWaiting {
			continue
		}
		co.retireLocked(tw, true)
		co.stats.coordHits++
		if co.mCoord != nil {
			co.mCoord.Inc()
		}
		sends = co.serveTaskLocked(sends, tw, TierCoord, res.Blob)
	}
	delete(co.waiters, t.key)
	delete(co.inflight, t.key)
	sends = append(sends, co.dispatch()...)
	co.mu.Unlock()
	co.persistAll(ps)
	co.flush(sends)
}

// serveTaskLocked emits the SERVE frame for a completed task and, when it
// was the job's last fragment, the JOB_DONE. Caller holds co.mu.
func (co *Coordinator) serveTaskLocked(sends []send, t *task, tier uint8, blob []byte) []send {
	cl := co.clients[t.client]
	if cl == nil {
		return sends
	}
	js := cl.jobs[t.job]
	if js == nil || js.failed {
		return sends
	}
	switch tier {
	case TierLocal:
		js.localHits++
	case TierCoord:
		js.coordHits++
	default:
		js.computed++
	}
	js.done++
	sends = append(sends, send{cl.tr, MsgServe, Serve{
		Job: t.job, Frag: t.frag, Tier: tier, Blob: blob,
	}.encode()})
	if js.done == js.nfrags && js.announced == js.nfrags {
		delete(cl.jobs, t.job)
		co.stats.jobsDone++
		sends = append(sends, send{cl.tr, MsgJobDone, JobDone{
			Job: t.job, Computed: js.computed, LocalHits: js.localHits,
			CoordHits: js.coordHits, Reassigns: js.reassigns,
		}.encode()})
	}
	return sends
}

// handleTaskFail retries transient failures under the bounded budget and
// fails the owning job (and any waiter jobs — the failure is
// deterministic for the key) otherwise. Only the task's current owner is
// heard: a failure from a worker whose lease expired and was reassigned is
// counted and ignored, since the new owner's attempt is still running.
func (co *Coordinator) handleTaskFail(w *workerConn, tf TaskFail) {
	co.mu.Lock()
	w.lastSeen = time.Now()
	delete(w.inflight, tf.Task)
	co.stats.taskFails++
	if co.mFails != nil {
		co.mFails.Inc()
	}
	t := co.tasks[tf.Task]
	if t == nil || t.state != taskLeased || t.owner != w.session {
		co.mu.Unlock()
		return
	}
	t.fails++
	var sends []send
	if tf.Transient && t.fails <= co.cfg.MaxTaskRetries {
		co.requeueLocked(t)
		sends = co.dispatch()
		co.mu.Unlock()
		co.logf("cluster: coord: task %d transient failure %d/%d, requeued: %s",
			t.id, t.fails, co.cfg.MaxTaskRetries, tf.Msg)
		co.flush(sends)
		return
	}
	// Unrecoverable: fail this task's job and every job waiting on the key.
	msg := tf.Msg
	if msg == "" {
		msg = "task failed"
	}
	failed := append([]uint64{t.id}, co.waiters[t.key]...)
	for _, id := range failed {
		ft := co.tasks[id]
		if ft == nil {
			continue
		}
		co.retireLocked(ft, false)
		sends = co.failJobLocked(sends, ft.client, ft.job, msg)
	}
	delete(co.waiters, t.key)
	delete(co.inflight, t.key)
	sends = append(sends, co.dispatch()...)
	co.mu.Unlock()
	co.logf("cluster: coord: task %d failed permanently: %s", t.id, msg)
	co.flush(sends)
}

// failJobLocked marks a job failed, kills its remaining tasks, and emits
// the error JOB_DONE. Caller holds co.mu.
func (co *Coordinator) failJobLocked(sends []send, client, job uint64, msg string) []send {
	cl := co.clients[client]
	if cl == nil {
		return sends
	}
	js := cl.jobs[job]
	if js == nil || js.failed {
		return sends
	}
	js.failed = true
	if js.announced == js.nfrags {
		delete(cl.jobs, job)
	}
	co.stats.jobsFailed++
	for _, t := range co.tasks {
		if t.client == client && t.job == job {
			co.killTaskLocked(t)
		}
	}
	return append(sends, send{cl.tr, MsgJobDone, JobDone{Job: job, Err: msg}.encode()})
}

// killTaskLocked abandons one task. If it was the in-flight producer for
// its key, a parked waiter is promoted to a live pending task so other
// jobs sharing the key still complete. Caller holds co.mu.
func (co *Coordinator) killTaskLocked(t *task) {
	prev := t.state
	co.retireLocked(t, false)
	if prev == taskLeased {
		if w := co.workers[t.owner]; w != nil {
			delete(w.inflight, t.id)
		}
	}
	if prev == taskWaiting {
		ws := co.waiters[t.key]
		for i, id := range ws {
			if id == t.id {
				co.setWaitersLocked(t.key, append(ws[:i:i], ws[i+1:]...))
				break
			}
		}
		return
	}
	if co.inflight[t.key] != t.id {
		return
	}
	// Promote the first live waiter to producer.
	delete(co.inflight, t.key)
	ws := co.waiters[t.key]
	for i, id := range ws {
		tw := co.tasks[id]
		if tw == nil || tw.state != taskWaiting {
			continue
		}
		co.setWaitersLocked(t.key, ws[i+1:])
		tw.state = taskPending
		co.inflight[t.key] = tw.id
		co.queue = append(co.queue, tw.id)
		return
	}
	delete(co.waiters, t.key)
}

// setWaitersLocked replaces a key's waiter list, dropping the entry with its
// last waiter. Caller holds co.mu.
func (co *Coordinator) setWaitersLocked(k store.Key, ws []uint64) {
	if len(ws) == 0 {
		delete(co.waiters, k)
		return
	}
	co.waiters[k] = ws
}

func (co *Coordinator) runClient(tr *transport, hello Hello) {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		tr.close()
		return
	}
	co.nextSess++
	cl := &clientConn{
		session:  co.nextSess,
		name:     hello.Name,
		tr:       tr,
		jobs:     make(map[uint64]*jobState),
		lastSeen: time.Now(),
	}
	co.clients[cl.session] = cl
	co.mu.Unlock()
	co.flush([]send{{tr, MsgWelcome, Welcome{Proto: ProtoVersion, Session: cl.session}.encode()}})

	for {
		tr.setReadDeadline(time.Now().Add(3 * co.cfg.HeartbeatTimeout))
		f, err := tr.read()
		if err != nil {
			co.dropClient(cl, err.Error())
			return
		}
		switch f.Type {
		case MsgJob:
			m, err := decodeJob(f.Payload)
			if err != nil || m.NFrags == 0 {
				co.dropClient(cl, "bad JOB")
				return
			}
			co.mu.Lock()
			cl.lastSeen = time.Now()
			if _, dup := cl.jobs[m.Job]; dup {
				co.mu.Unlock()
				co.dropClient(cl, "duplicate job id")
				return
			}
			cl.jobs[m.Job] = &jobState{id: m.Job, nfrags: m.NFrags, opt: m.Opt}
			co.mu.Unlock()
		case MsgFrag:
			m, err := decodeFrag(f.Payload)
			if err != nil {
				co.dropClient(cl, "bad FRAG")
				return
			}
			co.handleFrag(cl, m)
		case MsgHeartbeat:
			co.mu.Lock()
			cl.lastSeen = time.Now()
			co.mu.Unlock()
		case MsgStats:
			blob, err := json.Marshal(co.Snapshot())
			if err != nil {
				blob = []byte("{}")
			}
			co.flush([]send{{tr, MsgStatsOK, blob}})
		case MsgBye:
			co.dropClient(cl, "bye")
			return
		default:
			co.dropClient(cl, fmt.Sprintf("unexpected %s from client", f.Type))
			return
		}
	}
}

// handleFrag admits one unique fragment through the tiered cache:
// coordinator store hit → serve immediately; identical key in flight →
// park as waiter; otherwise queue as producer.
func (co *Coordinator) handleFrag(cl *clientConn, m Frag) {
	if len(m.Els) == 0 || len(m.Els) != len(m.Pos) {
		co.dropClient(cl, "bad FRAG geometry")
		return
	}
	co.mu.Lock()
	cl.lastSeen = time.Now()
	js := cl.jobs[m.Job]
	if js == nil || js.announced >= js.nfrags {
		co.mu.Unlock()
		co.dropClient(cl, "FRAG outside job")
		return
	}
	js.announced++
	if js.failed {
		if js.announced == js.nfrags {
			delete(cl.jobs, m.Job)
		}
		co.mu.Unlock()
		return
	}
	co.nextTask++
	t := &task{
		id: co.nextTask, client: cl.session, job: m.Job, frag: m.Frag,
		key: m.Key, els: m.Els, pos: m.Pos, opt: js.opt, state: taskPending,
	}
	co.tasks[t.id] = t
	// Tier: coordinator store (serves without leasing anything).
	coordBlob := []byte(nil)
	if co.cfg.Store != nil {
		if blob, ok, err := co.cfg.Store.GetRaw(m.Key); err == nil && ok {
			coordBlob = blob
		}
	}
	var sends []send
	switch {
	case coordBlob != nil:
		co.retireLocked(t, true)
		co.stats.coordHits++
		if co.mCoord != nil {
			co.mCoord.Inc()
		}
		sends = co.serveTaskLocked(sends, t, TierCoord, coordBlob)
	case co.aliveProducer(m.Key):
		t.state = taskWaiting
		co.waiters[m.Key] = append(co.waiters[m.Key], t.id)
	default:
		co.inflight[m.Key] = t.id
		co.queue = append(co.queue, t.id)
		sends = co.dispatch()
	}
	co.mu.Unlock()
	co.flush(sends)
}

// aliveProducer reports whether the key already has a live producing task.
// Caller holds co.mu.
func (co *Coordinator) aliveProducer(k store.Key) bool {
	id, ok := co.inflight[k]
	if !ok {
		return false
	}
	t := co.tasks[id]
	return t != nil && (t.state == taskPending || t.state == taskLeased)
}

// dropClient removes a client and abandons its unfinished tasks,
// promoting cross-client waiters where needed.
func (co *Coordinator) dropClient(cl *clientConn, reason string) {
	co.mu.Lock()
	if _, ok := co.clients[cl.session]; !ok {
		co.mu.Unlock()
		return
	}
	delete(co.clients, cl.session)
	for _, t := range co.tasks {
		if t.client == cl.session {
			co.killTaskLocked(t)
		}
	}
	sends := co.dispatch()
	co.mu.Unlock()
	cl.tr.close()
	co.logf("cluster: coord: client session %d gone (%s)", cl.session, reason)
	co.flush(sends)
}

// reaper enforces heartbeat and lease timeouts: silent workers are
// disconnected (their reader goroutine then requeues the leases) and
// expired leases are requeued. The straggler is not told: it finishes, and
// its result counts if it is the first. Until then the task stays in its
// inflight set, since it is still computing: its slot is not free, so
// dispatch hands the requeued lease to another worker rather than back to
// the straggler that let it expire.
func (co *Coordinator) reaper() {
	defer co.wg.Done()
	tick := co.cfg.HeartbeatTimeout / 4
	if lt := co.cfg.LeaseTimeout / 4; lt < tick {
		tick = lt
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-ticker.C:
		}
		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			return
		}
		now := time.Now()
		var dead []*transport
		for _, w := range co.workers {
			if now.Sub(w.lastSeen) > co.cfg.HeartbeatTimeout {
				co.logf("cluster: coord: worker %q heartbeat timeout", w.name)
				dead = append(dead, w.tr)
			}
		}
		for _, t := range co.tasks {
			if t.state != taskLeased || now.Sub(t.leasedAt) <= co.cfg.LeaseTimeout {
				continue
			}
			co.requeueLocked(t)
			co.logf("cluster: coord: task %d lease expired, requeued", t.id)
		}
		sends := co.dispatch()
		co.mu.Unlock()
		// Closing a dead worker's conn unblocks its reader, which
		// requeues the leases through the regular drop path.
		for _, tr := range dead {
			tr.close()
		}
		co.flush(sends)
	}
}

// WorkerStat is one worker's row in the STATS snapshot.
type WorkerStat struct {
	Name      string `json:"name"`
	Session   uint64 `json:"session"`
	Slots     int    `json:"slots"`
	Inflight  int    `json:"inflight"`
	Fragments int    `json:"fragments"`
	LastSeen  int64  `json:"last_seen_ms"` // milliseconds ago
}

// Snapshot is the coordinator's STATS reply (also what qfstats -cluster
// renders).
type Snapshot struct {
	Proto        int          `json:"proto_version"`
	Workers      []WorkerStat `json:"workers"`
	Clients      int          `json:"clients"`
	TasksPending int          `json:"tasks_pending"`
	TasksLeased  int          `json:"tasks_leased"`
	TasksWaiting int          `json:"tasks_waiting"`
	TasksDone    int          `json:"tasks_done"`
	Leases       uint64       `json:"leases"`
	Reassigns    uint64       `json:"lease_reassigns"`
	DupResults   uint64       `json:"duplicate_results"`
	TaskFails    uint64       `json:"task_failures"`
	TierLocal    uint64       `json:"cache_local_hits"`
	TierCoord    uint64       `json:"cache_coord_hits"`
	TierFetch    uint64       `json:"cache_fetch_hits"` // always 0 since protocol 6, kept for bench/ until ROADMAP item 1
	Recomputes   uint64       `json:"cache_recomputes"`
	JobsDone     uint64       `json:"jobs_done"`
	JobsFailed   uint64       `json:"jobs_failed"`
	StoreObjects int          `json:"store_objects"`
	StoreBytes   int64        `json:"store_bytes"`
}

// Snapshot captures the coordinator's current state and counters.
func (co *Coordinator) Snapshot() Snapshot {
	co.mu.Lock()
	now := time.Now()
	s := Snapshot{
		Proto:      ProtoVersion,
		Clients:    len(co.clients),
		Leases:     co.stats.leases,
		Reassigns:  co.stats.reassigns,
		DupResults: co.stats.dupResults,
		TaskFails:  co.stats.taskFails,
		TierLocal:  co.stats.localHits,
		TierCoord:  co.stats.coordHits,
		Recomputes: co.stats.computed,
		JobsDone:   co.stats.jobsDone,
		JobsFailed: co.stats.jobsFailed,
		TasksDone:  int(co.stats.tasksDone),
	}
	for _, w := range co.workers {
		s.Workers = append(s.Workers, WorkerStat{
			Name: w.name, Session: w.session, Slots: w.slots,
			Inflight: len(w.inflight), Fragments: w.frags,
			LastSeen: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	for _, t := range co.tasks {
		switch t.state {
		case taskPending:
			s.TasksPending++
		case taskLeased:
			s.TasksLeased++
		case taskWaiting:
			s.TasksWaiting++
		}
	}
	co.mu.Unlock()
	sortWorkers(s.Workers)
	if co.cfg.Store != nil {
		st := co.cfg.Store.Stats()
		s.StoreObjects = st.Objects
		s.StoreBytes = st.Bytes
	}
	return s
}

func sortWorkers(ws []WorkerStat) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Session < ws[j-1].Session; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
