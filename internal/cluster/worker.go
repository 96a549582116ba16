package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/sched"
	"qframan/internal/store"
)

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name identifies the worker in logs and per-worker metrics.
	Name string
	// Slots is the number of concurrent leases (fragment-level
	// parallelism); zero selects 1.
	Slots int
	// Threads is ignored: a fragment's parallelism is the par kernel
	// budget. It is kept only because bench/ compiles against it.
	Threads int
	// Store is the worker-local cache tier; nil disables it.
	Store *store.Store
	// Registry receives the worker's transport metrics (nil disables).
	Registry *obs.Registry
	// Injector applies chaos to the worker's outbound frames.
	Injector FrameInjector
	// Throttle sleeps this long before computing each fragment — a test
	// and chaos knob to keep a run in flight long enough to kill things.
	Throttle time.Duration
	// HeartbeatInterval paces liveness beacons (default 3 s; must stay
	// under the coordinator's HeartbeatTimeout).
	HeartbeatInterval time.Duration
	// DialTimeout bounds connection attempts (default 5 s).
	DialTimeout time.Duration
	// MaxReconnects bounds reconnection attempts after a connection
	// failure; zero retries forever (daemon mode), negative disables
	// reconnection entirely.
	MaxReconnects int
	// MaxPayload bounds inbound frame payloads (0 = DefaultMaxPayload).
	MaxPayload int
	// Process overrides the fragment engine (tests); nil selects
	// sched.DefaultProcess — the real SCF+DFPT pipeline. Either runs under
	// sched.Compute's guard: a panic fails the lease as transient, a
	// non-finite result fails it for good.
	Process sched.ProcessFunc
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// Worker executes fragment leases for a coordinator: tiered cache lookup
// (local store, else compute), canonical-blob results, heartbeats, and
// bounded reconnection with exponential backoff.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker builds a worker daemon; call Run to start it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 3 * time.Second
	}
	return &Worker{cfg: cfg}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run connects to the coordinator and serves leases until ctx is
// cancelled. Connection failures reconnect with exponential backoff under
// the MaxReconnects budget; a protocol version rejection is permanent.
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for {
		err := w.session(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrVersionSkew) || errors.Is(err, ErrRejected) {
			return err
		}
		attempt++
		if w.cfg.MaxReconnects < 0 || (w.cfg.MaxReconnects > 0 && attempt > w.cfg.MaxReconnects) {
			return fmt.Errorf("cluster: worker: reconnect budget exhausted: %w", err)
		}
		backoff := 500 * time.Millisecond << min(attempt-1, 5)
		w.logf("cluster: worker %q: connection lost (%v), reconnecting in %s", w.cfg.Name, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
	}
}

// workerSession is the state of one live connection.
type workerSession struct {
	w     *Worker
	tr    *transport
	done  chan struct{} // closed when the session tears down
	slots chan struct{} // lease-concurrency semaphore
}

func (w *Worker) session(ctx context.Context) error {
	tr, wel, err := handshake(w.cfg.Addr, Hello{
		Role:  RoleWorker,
		Proto: ProtoVersion,
		Slots: uint32(w.cfg.Slots),
		Name:  w.cfg.Name,
	}, w.cfg.DialTimeout, w.cfg.MaxPayload, w.cfg.Registry)
	if err != nil {
		return err
	}
	if w.cfg.Injector != nil {
		tr.inj = w.cfg.Injector
	}
	w.logf("cluster: worker %q: connected as session %d", w.cfg.Name, wel.Session)

	s := &workerSession{
		w:     w,
		tr:    tr,
		done:  make(chan struct{}),
		slots: make(chan struct{}, w.cfg.Slots),
	}
	var once sync.Once
	teardown := func() {
		once.Do(func() {
			close(s.done)
			tr.close()
		})
	}
	defer teardown()

	// ctx cancellation and heartbeats ride a side goroutine; closing the
	// conn unblocks the reader below.
	go func() {
		ticker := time.NewTicker(w.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				tr.write(MsgBye, nil)
				teardown()
				return
			case <-s.done:
				return
			case <-ticker.C:
				if err := tr.write(MsgHeartbeat, nil); err != nil {
					teardown()
					return
				}
			}
		}
	}()

	for {
		f, err := tr.read()
		if err != nil {
			return err
		}
		switch f.Type {
		case MsgLease:
			l, err := decodeLease(f.Payload)
			if err != nil {
				return err
			}
			select {
			case s.slots <- struct{}{}:
			case <-s.done:
				return errors.New("cluster: worker: session closed")
			}
			go s.processLease(l)
		case MsgBye:
			return errors.New("cluster: worker: coordinator said bye")
		default:
			return fmt.Errorf("%w: unexpected %s at worker", ErrProtocol, f.Type)
		}
	}
}

// processLease resolves one lease through the cache tiers and reports the
// result (or failure) back.
func (s *workerSession) processLease(l Lease) {
	defer func() { <-s.slots }()
	tier, blob, err := s.resolve(l)
	if err != nil {
		s.tr.write(MsgTaskFail, TaskFail{
			Task: l.Task, Transient: faults.IsTransient(err), Msg: err.Error(),
		}.encode())
		return
	}
	s.tr.write(MsgResult, Result{Task: l.Task, Tier: tier, Blob: blob}.encode())
}

// resolve walks the cache tiers for one lease: worker-local store, else
// recompute. It returns the canonical blob and the tier that produced it.
// (The coordinator checked its own store when it admitted the fragment; a
// record that lands there while this lease is out is recomputed, with the
// same bits.)
func (s *workerSession) resolve(l Lease) (uint8, []byte, error) {
	cfg := &s.w.cfg
	f := &fragment.Fragment{ID: int(l.Task), Coeff: 1, Els: l.Els, Pos: l.Pos}
	opt := sched.DefaultOptions()
	opt.Job = l.Opt
	key, fr := store.Fingerprint(f, opt.Job)
	if key != l.Key {
		// The coordinator and this build disagree on the content
		// fingerprint: a deterministic mismatch (skewed builds), never
		// retried.
		return 0, nil, fmt.Errorf("cluster: worker: fingerprint mismatch for task %d (have %s, lease says %s)",
			l.Task, key, l.Key)
	}

	// Tier: worker-local store.
	if cfg.Store != nil {
		if blob, ok, err := cfg.Store.GetRaw(key); err == nil && ok {
			return TierLocal, blob, nil
		}
	}
	// Tier: recompute.
	if cfg.Throttle > 0 {
		time.Sleep(cfg.Throttle)
	}
	opt.Process = cfg.Process
	data, err := sched.Compute(f, opt)
	if err != nil {
		return 0, nil, err
	}
	canon, err := fr.ToCanonical(data)
	if err != nil {
		return 0, nil, err
	}
	blob, err := store.Encode(canon)
	if err != nil {
		return 0, nil, err
	}
	if cfg.Store != nil {
		if err := cfg.Store.PutRaw(key, len(l.Els), blob); err != nil {
			s.w.logf("cluster: worker %q: local checkpoint: %v", cfg.Name, err)
		}
	}
	return TierCompute, blob, nil
}
