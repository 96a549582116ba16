package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qframan/internal/constants"
	"qframan/internal/core"
	"qframan/internal/faults"
	"qframan/internal/fragment"
	"qframan/internal/geom"
	"qframan/internal/hessian"
	"qframan/internal/linalg"
	"qframan/internal/obs"
	"qframan/internal/sched"
	"qframan/internal/store"
)

// ChaosConfig is the deterministic frame-level injector: each rate is a
// probability evaluated against an independent faults.Uniform draw keyed
// by (Seed, seq, message type), so the schedule is a pure function of the
// seed — the same discipline as the scheduler's attempt-level injector.
type ChaosConfig struct {
	Seed int64
	// DropRate is the probability of swallowing a frame.
	DropRate float64
	// CorruptRate is the probability of flipping a payload bit.
	CorruptRate float64
	// SeverRate is the probability of closing the connection instead of
	// writing.
	SeverRate float64
	// DelayRate and Delay stall a frame's write.
	DelayRate float64
	Delay     time.Duration
	// Protect exempts message types from destructive faults (e.g. keep
	// the handshake clean so a test exercises steady-state recovery, not
	// connect storms). Delay still applies.
	Protect map[MsgType]bool
}

// Draw salts, one per fault class (arbitrary distinct constants).
const (
	saltDrop = iota + 0x6200
	saltCorrupt
	saltSever
	saltDelay
)

// PlanFrame implements FrameInjector.
func (c ChaosConfig) PlanFrame(seq int, t MsgType) FramePlan {
	var plan FramePlan
	if c.DelayRate > 0 && faults.Uniform(c.Seed, seq, int(t), saltDelay) < c.DelayRate {
		plan.Delay = c.Delay
	}
	if c.Protect[t] {
		return plan
	}
	switch {
	case c.SeverRate > 0 && faults.Uniform(c.Seed, seq, int(t), saltSever) < c.SeverRate:
		plan.Sever = true
	case c.DropRate > 0 && faults.Uniform(c.Seed, seq, int(t), saltDrop) < c.DropRate:
		plan.Drop = true
	case c.CorruptRate > 0 && faults.Uniform(c.Seed, seq, int(t), saltCorrupt) < c.CorruptRate:
		plan.Corrupt = true
	}
	return plan
}

// severResults is a worker-side injector that models kill -9 from the
// coordinator's point of view: the instant the worker tries to report its
// first result, the connection is cut with no BYE, leaving every lease it
// held dangling.
var severResults = ChaosConfig{
	Seed:      1,
	SeverRate: 1,
	Protect: map[MsgType]bool{
		MsgHeartbeat: true, MsgTaskFail: true, MsgBye: true,
	},
}

// TestClusterSurvivesWorkerDeath kills one of three workers mid-run — its
// connection is severed without a BYE while it holds a lease — and
// requires the run to complete with a spectrum bit-identical to the
// single-process golden, with the dead worker's leases reassigned.
func TestClusterSurvivesWorkerDeath(t *testing.T) {
	co, addr := testCoordinator(t, CoordConfig{
		Registry:         obs.NewRegistry(),
		HeartbeatTimeout: 2 * time.Second,
	})
	// Two survivors and one doomed worker that dies on its first RESULT
	// and never reconnects.
	startTestWorker(t, WorkerConfig{Addr: addr, Name: "w0", Slots: 1, Throttle: 100 * time.Millisecond})
	startTestWorker(t, WorkerConfig{Addr: addr, Name: "w1", Slots: 1, Throttle: 100 * time.Millisecond})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "doomed", Slots: 1,
		Throttle:      100 * time.Millisecond,
		Injector:      severResults,
		MaxReconnects: -1,
	})
	waitForWorkers(t, co, 3)

	cfg := clusterTestConfig()
	cfg.Sched.Backend = NewClient(addr)
	res, err := core.ComputeRaman(testWaterbox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSpectrum(res.Spectrum, waterboxGolden(t)); err != nil {
		t.Fatalf("spectrum deviates after worker death: %v", err)
	}
	snap := co.Snapshot()
	if snap.Reassigns == 0 {
		t.Fatalf("the doomed worker's leases were never reassigned: %+v", snap)
	}
	if res.SchedReport.Requeues == 0 {
		t.Fatalf("client report shows no requeues: %+v", res.SchedReport)
	}
}

// waitForWorkers blocks until n workers appear in the roster (they connect
// asynchronously; the dispatch-spread assertions need all of them seated).
func waitForWorkers(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d workers to connect", n), func() bool { return len(co.Snapshot().Workers) >= n })
}

// ---- synthetic-engine chaos runs ----
//
// The frame-level drop/corrupt tests use a deterministic fake engine so a
// run has dozens of fragments for the chaos schedule to hit without
// minutes of real DFPT. The engine is a pure function of the fragment
// geometry — any worker, after any number of reassignments, produces the
// same bits.

// fakeEngine derives a symmetric 3N×3N "Hessian" from interatomic offsets
// (the upper triangle, mirrored: a Hessian is symmetric bit for bit, and
// sched.Compute rejects one that is not). It is translation-invariant, so
// rigid translated copies share canonical records exactly like real rigid
// waters do.
func fakeEngine(f *fragment.Fragment, _ sched.Options) (*hessian.FragmentData, error) {
	n := len(f.Els)
	h := linalg.NewMatrix(3*n, 3*n)
	for i := 0; i < 3*n; i++ {
		for j := i; j < 3*n; j++ {
			a, b := f.Pos[i/3], f.Pos[j/3]
			v := (a.X - b.X) + 0.5*(a.Y-b.Y) + 0.25*(a.Z-b.Z) + 0.125*float64(i%3) - 0.0625*float64(j%3)
			h.Set(i, j, v)
			h.Set(j, i, v)
		}
	}
	return &hessian.FragmentData{Hess: h}, nil
}

// fakeDecomposition builds nUnique distinct water-like triangles, each
// replicated copies times by pure translation (rigid copies → one content
// key per unique shape).
func fakeDecomposition(nUnique, copies int) *fragment.Decomposition {
	dec := &fragment.Decomposition{}
	id := 0
	for u := 0; u < nUnique; u++ {
		base := []geom.Vec3{
			{X: 0, Y: 0, Z: 0},
			{X: 0.96 + 0.01*float64(u), Y: 0, Z: 0},
			{X: -0.24, Y: 0.93, Z: 0.1 + 0.005*float64(u)},
		}
		for c := 0; c < copies; c++ {
			shift := geom.Vec3{X: 8 * float64(c), Y: 3 * float64(u), Z: 0}
			pos := make([]geom.Vec3, len(base))
			for i, p := range base {
				pos[i] = p.Add(shift)
			}
			dec.Fragments = append(dec.Fragments, fragment.Fragment{
				ID:      id,
				Coeff:   1,
				NumReal: len(base),
				Els:     []constants.Element{constants.O, constants.H, constants.H},
				Pos:     pos,
			})
			id++
		}
	}
	return dec
}

// localFakeRun computes the single-process store-backed reference results
// for a synthetic decomposition.
func localFakeRun(t *testing.T, dec *fragment.Decomposition) []*hessian.FragmentData {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opt := sched.DefaultOptions()
	opt.Process = fakeEngine
	opt.Cache.Store = st
	datas, _, err := sched.Run(dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return datas
}

func sameDatas(a, b []*hessian.FragmentData) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] == nil || b[i] == nil {
			return fmt.Errorf("fragment %d: nil result", i)
		}
		ha, hb := a[i].Hess, b[i].Hess
		if ha.Rows != hb.Rows || ha.Cols != hb.Cols || len(ha.Data) != len(hb.Data) {
			return fmt.Errorf("fragment %d: shape mismatch", i)
		}
		for k := range ha.Data {
			if math.Float64bits(ha.Data[k]) != math.Float64bits(hb.Data[k]) {
				return fmt.Errorf("fragment %d: element %d differs: %x vs %x",
					i, k, math.Float64bits(ha.Data[k]), math.Float64bits(hb.Data[k]))
			}
		}
	}
	return nil
}

// TestClusterSurvivesFrameChaos runs a 30-fragment synthetic job through a
// coordinator that drops and corrupts frames toward its workers. Dropped
// LEASEs must be recovered by lease expiry, corrupted frames by the CRC
// check plus reconnection — and the final results must still be
// bit-identical to the fault-free single-process run.
func TestClusterSurvivesFrameChaos(t *testing.T) {
	dec := fakeDecomposition(10, 3)
	want := localFakeRun(t, dec)

	co, addr := testCoordinator(t, CoordConfig{
		Registry:         obs.NewRegistry(),
		LeaseTimeout:     600 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
		Injector: ChaosConfig{
			Seed:        7,
			DropRate:    0.15,
			CorruptRate: 0.05,
			Protect:     map[MsgType]bool{MsgWelcome: true},
		},
	})
	for i := 0; i < 3; i++ {
		startTestWorker(t, WorkerConfig{
			Addr: addr, Name: fmt.Sprintf("w%d", i), Slots: 2,
			Process: fakeEngine,
		})
	}
	waitForWorkers(t, co, 3)

	opt := sched.DefaultOptions()
	got, rep, err := runCluster(addr, dec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDatas(got, want); err != nil {
		t.Fatalf("chaotic cluster run deviates from fault-free local run: %v", err)
	}
	if rep.NumTasks != 10 || rep.Deduped != 20 {
		t.Fatalf("dedup accounting: %+v", rep)
	}
	snap := co.Snapshot()
	if snap.JobsDone != 1 || snap.JobsFailed != 0 {
		t.Fatalf("job accounting under chaos: %+v", snap)
	}
	t.Logf("chaos run: %d leases, %d reassigns, %d dup results, tiers compute=%d local=%d coord=%d",
		snap.Leases, snap.Reassigns, snap.DupResults,
		snap.Recomputes, snap.TierLocal, snap.TierCoord)
}

// TestClusterDelayChaosStealsStragglers pins the straggler path under a
// clean network: a worker whose compute stalls past the lease timeout has
// its task reassigned, the first result wins, the late duplicate is dropped,
// and the results stay bit-identical.
func TestClusterDelayChaosStealsStragglers(t *testing.T) {
	dec := fakeDecomposition(6, 2)
	want := localFakeRun(t, dec)

	co, addr := testCoordinator(t, CoordConfig{
		Registry:         obs.NewRegistry(),
		LeaseTimeout:     300 * time.Millisecond,
		HeartbeatTimeout: 2 * time.Second,
	})
	// One fast worker and one straggler that sleeps past every lease
	// timeout before producing its (correct) result.
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "fast", Slots: 2, Process: fakeEngine,
	})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "slow", Slots: 1, Process: fakeEngine,
		Throttle: 900 * time.Millisecond,
	})
	waitForWorkers(t, co, 2)

	got, _, err := runCluster(addr, dec, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDatas(got, want); err != nil {
		t.Fatalf("straggler run deviates: %v", err)
	}
	snap := co.Snapshot()
	if snap.Reassigns == 0 {
		t.Fatalf("no lease was stolen from the straggler: %+v", snap)
	}
}

// TestStaleTaskFailIgnored: a TASK_FAIL from a worker that no longer owns
// the task — its lease expired and the task went to another worker — is
// counted but neither requeues the task nor fails the job; the run finishes
// bit-identical to the local one.
func TestStaleTaskFailIgnored(t *testing.T) {
	dec := fakeDecomposition(1, 2)
	want := localFakeRun(t, dec)

	co, addr := testCoordinator(t, CoordConfig{
		LeaseTimeout:     250 * time.Millisecond,
		HeartbeatTimeout: 5 * time.Second,
	})
	// A hand-driven worker that takes the lease and sits on it.
	stale, _, err := handshake(addr, Hello{Role: RoleWorker, Proto: ProtoVersion, Slots: 1, Name: "stale"},
		time.Second, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.close()
	waitForWorkers(t, co, 1)

	type run struct {
		datas []*hessian.FragmentData
		err   error
	}
	ran := make(chan run, 1)
	go func() {
		datas, _, err := runCluster(addr, dec, sched.DefaultOptions())
		ran <- run{datas, err}
	}()
	stale.setReadDeadline(time.Now().Add(10 * time.Second))
	f, err := stale.read()
	if err != nil || f.Type != MsgLease {
		t.Fatalf("stale worker: got %v, %v; want LEASE", f.Type, err)
	}
	lease, err := decodeLease(f.Payload)
	if err != nil {
		t.Fatal(err)
	}

	// The owner-to-be has more free slots than the stale worker, so every
	// requeue of the task lands on it; its engine holds until released.
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "owner", Slots: 2,
		Process: func(f *fragment.Fragment, o sched.Options) (*hessian.FragmentData, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return fakeEngine(f, o)
		},
	})
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the expired lease was never reassigned to the owner")
	}

	for _, transient := range []bool{true, false} {
		if err := stale.write(MsgTaskFail, TaskFail{Task: lease.Task, Transient: transient, Msg: "stale"}.encode()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both stale failures to be counted", func() bool { return co.Snapshot().TaskFails == 2 })
	var owner uint64
	for _, w := range co.Snapshot().Workers {
		if w.Name == "owner" {
			owner = w.Session
		}
	}
	co.mu.Lock()
	task := co.tasks[lease.Task]
	var state, fails int
	var holder uint64
	if task != nil {
		state, fails, holder = task.state, task.fails, task.owner
	}
	co.mu.Unlock()
	if task == nil || state != taskLeased || holder != owner || fails != 0 {
		t.Fatalf("after stale failures the task is %v (state %d, owner %d, fails %d); want leased to %d with no failure",
			task != nil, state, holder, fails, owner)
	}

	close(release)
	r := <-ran
	if r.err != nil {
		t.Fatalf("a stale TASK_FAIL failed the job: %v", r.err)
	}
	if err := sameDatas(r.datas, want); err != nil {
		t.Fatalf("run deviates from the local one: %v", err)
	}
	if snap := co.Snapshot(); snap.TaskFails != 2 || snap.JobsDone != 1 || snap.JobsFailed != 0 || snap.Reassigns == 0 {
		t.Fatalf("accounting: %+v", snap)
	}
}

// TestExpiredLeaseGoesToAnotherWorker: a lease that expires on a worker
// still computing it is reassigned to a worker with a free slot, not handed
// back to the straggler that let it expire. Both workers have one slot and
// the straggler the lower session, so it would win the tie-break were its
// slot counted free. Its later disconnect leaves the reassigned lease with
// the new owner, and the job completes bit-identical to the local run.
func TestExpiredLeaseGoesToAnotherWorker(t *testing.T) {
	dec := fakeDecomposition(1, 2)
	want := localFakeRun(t, dec)

	co, addr := testCoordinator(t, CoordConfig{
		LeaseTimeout:     250 * time.Millisecond,
		HeartbeatTimeout: 30 * time.Second, // the hand-driven straggler sends none
	})
	// A hand-driven straggler that connects first, takes the lease on the
	// tie-break and sits on it.
	straggler, _, err := handshake(addr, Hello{Role: RoleWorker, Proto: ProtoVersion, Slots: 1, Name: "straggler"},
		time.Second, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer straggler.close()
	waitForWorkers(t, co, 1)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "w1", Slots: 1,
		Process: func(f *fragment.Fragment, o sched.Options) (*hessian.FragmentData, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return fakeEngine(f, o)
		},
	})
	waitForWorkers(t, co, 2)

	type run struct {
		datas []*hessian.FragmentData
		err   error
	}
	ran := make(chan run, 1)
	go func() {
		datas, _, err := runCluster(addr, dec, sched.DefaultOptions())
		ran <- run{datas, err}
	}()
	straggler.setReadDeadline(time.Now().Add(10 * time.Second))
	f, err := straggler.read()
	if err != nil || f.Type != MsgLease {
		t.Fatalf("straggler: got %v, %v; want LEASE", f.Type, err)
	}
	lease, err := decodeLease(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the expired lease never reached the worker with a free slot")
	}

	// The straggler goes away while the new owner computes: the task must
	// stay leased to the owner, not be requeued a second time.
	straggler.close()
	waitFor(t, "the straggler to be dropped", func() bool { return len(co.Snapshot().Workers) == 1 })
	owner := co.Snapshot().Workers[0].Session
	co.mu.Lock()
	task := co.tasks[lease.Task]
	var state int
	var holder uint64
	if task != nil {
		state, holder = task.state, task.owner
	}
	co.mu.Unlock()
	if task == nil || state != taskLeased || holder != owner {
		t.Fatalf("after the straggler left the task is %v (state %d, owner %d); want leased to %d",
			task != nil, state, holder, owner)
	}

	close(release)
	r := <-ran
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := sameDatas(r.datas, want); err != nil {
		t.Fatalf("run deviates from the local one: %v", err)
	}
	if snap := co.Snapshot(); snap.JobsDone != 1 || snap.Reassigns != 1 || snap.Workers[0].Fragments != 1 {
		t.Fatalf("accounting: %+v", snap)
	}
}

// TestWorkerEnginePanicRetried: an engine panic on a worker fails that
// lease as transient instead of killing the worker process; the coordinator
// re-leases the task and the job completes bit-identically, with the worker
// still on its first session.
func TestWorkerEnginePanicRetried(t *testing.T) {
	dec := fakeDecomposition(4, 2)
	want := localFakeRun(t, dec)

	co, addr := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	var panicked atomic.Bool
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "w0", MaxReconnects: -1,
		Process: func(f *fragment.Fragment, o sched.Options) (*hessian.FragmentData, error) {
			if panicked.CompareAndSwap(false, true) {
				panic("engine bug")
			}
			return fakeEngine(f, o)
		},
	})
	waitForWorkers(t, co, 1)
	session := co.Snapshot().Workers[0].Session

	got, _, err := runCluster(addr, dec, sched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDatas(got, want); err != nil {
		t.Fatalf("run after a recovered panic deviates: %v", err)
	}
	snap := co.Snapshot()
	if snap.TaskFails != 1 || snap.JobsDone != 1 || snap.JobsFailed != 0 {
		t.Fatalf("panic accounting: %+v", snap)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].Session != session {
		t.Fatalf("worker did not survive the panic on its session %d: %+v", session, snap.Workers)
	}
}

// TestWorkerRejectsNonFiniteResult: a worker whose engine returns a NaN
// Hessian fails the job with the validation error instead of encoding,
// checkpointing and serving the NaN.
func TestWorkerRejectsNonFiniteResult(t *testing.T) {
	dec := fakeDecomposition(2, 1)
	co, addr := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "w0",
		Process: func(f *fragment.Fragment, o sched.Options) (*hessian.FragmentData, error) {
			fd, err := fakeEngine(f, o)
			fd.Hess.Set(0, 0, math.NaN())
			return fd, err
		},
	})
	waitForWorkers(t, co, 1)

	_, _, err := runCluster(addr, dec, sched.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN result not rejected: %v", err)
	}
	if snap := co.Snapshot(); snap.Recomputes != 0 || snap.JobsFailed != 1 {
		t.Fatalf("a rejected result was accepted: %+v", snap)
	}
}
