package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"qframan/internal/constants"
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

// testCoordinator starts a coordinator on a loopback listener with its own
// store, registering cleanup. The store may be nil to disable the
// coordinator cache tier.
func testCoordinator(t *testing.T, cfg CoordConfig) (*Coordinator, string) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	co := NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		co.Serve(ln)
	}()
	t.Cleanup(func() {
		co.Close()
		<-done
	})
	return co, ln.Addr().String()
}

// startTestWorker runs one worker daemon with a fresh local store until the
// test ends.
func startTestWorker(t *testing.T, cfg WorkerConfig) {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := NewWorker(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// clusterTestConfig is the fast Raman pipeline configuration every e2e test
// shares (the bit-identity comparisons need both sides to use one config).
func clusterTestConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Raman.FreqMin, cfg.Raman.FreqMax, cfg.Raman.FreqStep = 200, 4000, 10
	cfg.Raman.Sigma = 30
	cfg.Raman.LanczosK = 40
	return cfg
}

// waterboxGolden computes the single-process, store-backed waterbox
// spectrum exactly once per test binary — the golden every distributed run
// must match bit for bit. The store matters: Put serves the canonical
// roundtrip, which is the representation the cluster path ships.
var goldenOnce sync.Once
var goldenSpec *raman.Spectrum
var goldenErr error

func waterboxGolden(t *testing.T) *raman.Spectrum {
	t.Helper()
	goldenOnce.Do(func() {
		dir, err := store.Open(t.TempDir())
		if err != nil {
			goldenErr = err
			return
		}
		defer dir.Close()
		cfg := clusterTestConfig()
		cfg.Sched.Cache.Store = dir
		res, err := core.ComputeRaman(testWaterbox(), cfg)
		if err != nil {
			goldenErr = err
			return
		}
		goldenSpec = res.Spectrum
	})
	if goldenErr != nil {
		t.Fatalf("golden run: %v", goldenErr)
	}
	return goldenSpec
}

func testWaterbox() *structure.System {
	return structure.BuildWaterBox(2, 2, 1, geom.Vec3{})
}

func sameSpectrum(a, b *raman.Spectrum) error {
	if len(a.Intensity) != len(b.Intensity) || len(a.Freq) != len(b.Freq) {
		return fmt.Errorf("spectrum shapes differ: %d/%d vs %d/%d",
			len(a.Freq), len(a.Intensity), len(b.Freq), len(b.Intensity))
	}
	for i := range a.Intensity {
		if math.Float64bits(a.Intensity[i]) != math.Float64bits(b.Intensity[i]) {
			return fmt.Errorf("intensity[%d] differs: %x vs %x",
				i, math.Float64bits(a.Intensity[i]), math.Float64bits(b.Intensity[i]))
		}
	}
	for i := range a.Freq {
		if math.Float64bits(a.Freq[i]) != math.Float64bits(b.Freq[i]) {
			return fmt.Errorf("freq[%d] differs", i)
		}
	}
	return nil
}

// TestClusterBitIdenticalWaterbox is the acceptance run: a 1-coordinator,
// 4-worker loopback cluster computing the waterbox spectrum must emit
// bit-identical results to the single-process store-backed run.
func TestClusterBitIdenticalWaterbox(t *testing.T) {
	co, addr := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	for i := 0; i < 4; i++ {
		startTestWorker(t, WorkerConfig{Addr: addr, Name: fmt.Sprintf("w%d", i), Slots: 1})
	}

	cfg := clusterTestConfig()
	cfg.Sched.Backend = NewClient(addr)
	res, err := core.ComputeRaman(testWaterbox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSpectrum(res.Spectrum, waterboxGolden(t)); err != nil {
		t.Fatalf("cluster spectrum deviates from single-process run: %v", err)
	}

	rep := res.SchedReport
	nf := len(res.Decomposition.Fragments)
	if rep.NumTasks == 0 || rep.NumTasks > nf {
		t.Fatalf("report: %d unique tasks for %d fragments", rep.NumTasks, nf)
	}
	// The waterbox monomers are rigid copies of one water: the client-side
	// dedup election must have collapsed them.
	if rep.Deduped == 0 {
		t.Fatalf("no within-run dedup on a rigid-copy waterbox (report %+v)", rep)
	}
	if rep.CacheMisses != rep.NumTasks {
		t.Fatalf("cold cluster run: %d computed of %d unique", rep.CacheMisses, rep.NumTasks)
	}

	snap := co.Snapshot()
	if snap.Recomputes == 0 || snap.Recomputes != uint64(rep.NumTasks) {
		t.Fatalf("coordinator counted %d recomputes, client saw %d", snap.Recomputes, rep.NumTasks)
	}
	if snap.JobsDone != 1 || snap.JobsFailed != 0 {
		t.Fatalf("job accounting: %+v", snap)
	}
}

// TestClusterDedupAcrossJobs pins the cluster-wide cache: a second client
// running the same system against a warm coordinator must be served
// entirely from the coordinator tier — zero new computes.
func TestClusterDedupAcrossJobs(t *testing.T) {
	co, addr := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	startTestWorker(t, WorkerConfig{Addr: addr, Name: "w0", Slots: 2})

	cfg := clusterTestConfig()
	cfg.Sched.Backend = NewClient(addr)
	res1, err := core.ComputeRaman(testWaterbox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	computed := co.Snapshot().Recomputes

	cfg2 := clusterTestConfig()
	cfg2.Sched.Backend = NewClient(addr)
	res2, err := core.ComputeRaman(testWaterbox(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSpectrum(res1.Spectrum, res2.Spectrum); err != nil {
		t.Fatalf("warm run deviates: %v", err)
	}
	if err := sameSpectrum(res2.Spectrum, waterboxGolden(t)); err != nil {
		t.Fatalf("warm cluster run deviates from single-process run: %v", err)
	}

	snap := co.Snapshot()
	if snap.Recomputes != computed {
		t.Fatalf("warm run recomputed fragments: %d → %d", computed, snap.Recomputes)
	}
	if snap.TierCoord < computed {
		t.Fatalf("warm run served %d coord-tier hits, want ≥ %d", snap.TierCoord, computed)
	}
	rep := res2.SchedReport
	if rep.CacheMisses != 0 || rep.Resumed != rep.NumTasks {
		t.Fatalf("warm report: %+v", rep)
	}
}

// TestClusterWorkerLocalTier pins the worker-local cache: a worker that
// already holds every blob on its own disk serves leases without touching
// the engine or the coordinator store.
func TestClusterWorkerLocalTier(t *testing.T) {
	wstore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer wstore.Close()

	// Warm the worker's local store through a first coordinator.
	co1, addr1 := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	startTestWorker(t, WorkerConfig{Addr: addr1, Name: "w0", Slots: 2, Store: wstore})
	cfg := clusterTestConfig()
	cfg.Sched.Backend = NewClient(addr1)
	if _, err := core.ComputeRaman(testWaterbox(), cfg); err != nil {
		t.Fatal(err)
	}
	if co1.Snapshot().Recomputes == 0 {
		t.Fatal("cold run computed nothing")
	}

	// A brand-new coordinator (cold store) with the same worker: every
	// fragment must come back TierLocal.
	co2, addr2 := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	startTestWorker(t, WorkerConfig{Addr: addr2, Name: "w0b", Slots: 2, Store: wstore})
	cfg2 := clusterTestConfig()
	cfg2.Sched.Backend = NewClient(addr2)
	res, err := core.ComputeRaman(testWaterbox(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSpectrum(res.Spectrum, waterboxGolden(t)); err != nil {
		t.Fatalf("local-tier run deviates: %v", err)
	}
	snap := co2.Snapshot()
	if snap.Recomputes != 0 {
		t.Fatalf("worker recomputed %d fragments despite a warm local store", snap.Recomputes)
	}
	if snap.TierLocal == 0 {
		t.Fatalf("no local-tier hits recorded: %+v", snap)
	}
}

// TestHandshakeVersionSkew is the negative handshake test: a peer speaking
// an unknown protocol version must get a clean typed error — REJECT with
// the version code, mapped to ErrVersionSkew — never a hang or a dropped
// conn it has to time out on.
func TestHandshakeVersionSkew(t *testing.T) {
	_, addr := testCoordinator(t, CoordConfig{})

	// A future peer, and version-1, -2 and -3 peers: their JOB and LEASE
	// frames carried the options in layouts this coordinator no longer reads,
	// so they must be turned away at the handshake, not at their first job.
	for _, proto := range []uint32{ProtoVersion + 7, 1, 2, 3} {
		start := time.Now()
		_, _, err := handshake(addr, Hello{Role: RoleWorker, Proto: proto, Name: "skewed"},
			time.Second, 0, nil)
		if !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("proto %d: got %v, want ErrVersionSkew", proto, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("proto %d: rejection took %v — the peer hung instead of rejecting", proto, elapsed)
		}
	}

	// The same skew at the raw frame level: the coordinator answers with a
	// typed REJECT frame, not silence.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write(EncodeFrame(MsgHello, Hello{Role: RoleClient, Proto: 0}.encode())); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, _, err := ReadFrame(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgReject {
		t.Fatalf("got %s, want REJECT", f.Type)
	}
	rej, err := decodeReject(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Code != RejectVersion {
		t.Fatalf("reject code %d, want RejectVersion", rej.Code)
	}
}

// TestHandshakeUnknownRole pins the generic rejection path (distinct from
// version skew).
func TestHandshakeUnknownRole(t *testing.T) {
	_, addr := testCoordinator(t, CoordConfig{})
	_, _, err := handshake(addr, Hello{Role: 99, Proto: ProtoVersion}, time.Second, 0, nil)
	if !errors.Is(err, ErrRejected) || errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want plain ErrRejected", err)
	}
}

// TestWorkerVersionSkewPermanent: a worker facing version skew must give up
// instead of burning its reconnect budget against an incompatible peer.
func TestWorkerVersionSkewPermanent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			ReadFrame(c, 0)
			c.Write(EncodeFrame(MsgReject, Reject{Code: RejectVersion, Reason: "nope"}.encode()))
			c.Close()
		}
	}()

	w := NewWorker(WorkerConfig{Addr: ln.Addr().String(), Name: "skewed"})
	errc := make(chan error, 1)
	go func() { errc <- w.Run(context.Background()) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("got %v, want ErrVersionSkew", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept reconnecting after a version rejection")
	}
}

// TestFetchStats exercises the STATS RPC end to end over a live cluster.
func TestFetchStats(t *testing.T) {
	_, addr := testCoordinator(t, CoordConfig{Registry: obs.NewRegistry()})
	startTestWorker(t, WorkerConfig{Addr: addr, Name: "w0", Slots: 2})

	cfg := clusterTestConfig()
	cfg.Sched.Backend = NewClient(addr)
	res, err := core.ComputeRaman(testWaterbox(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := FetchStats(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s.Proto != ProtoVersion {
		t.Fatalf("snapshot proto %d", s.Proto)
	}
	if len(s.Workers) != 1 || s.Workers[0].Name != "w0" {
		t.Fatalf("worker roster: %+v", s.Workers)
	}
	if s.Workers[0].Fragments == 0 {
		t.Fatal("per-worker fragment count missing")
	}
	if s.TasksDone != res.SchedReport.NumTasks {
		t.Fatalf("snapshot shows %d done tasks, report %d", s.TasksDone, res.SchedReport.NumTasks)
	}
	if s.Recomputes == 0 || s.StoreObjects == 0 {
		t.Fatalf("cache accounting empty: %+v", s)
	}
}

// TestCoordinatorClosesAtOnce: with a worker and a client connected, Close
// returns within 200 ms at the default HeartbeatTimeout; it does not wait for
// the reaper's next tick, a quarter of that timeout.
func TestCoordinatorClosesAtOnce(t *testing.T) {
	co, addr := testCoordinator(t, CoordConfig{})
	release := make(chan struct{})
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "w0",
		Process: func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
			<-release
			return fakeEngine(f, opt)
		},
	})
	t.Cleanup(func() { close(release) }) // runs before the worker's cleanup
	waitForWorkers(t, co, 1)
	ran := make(chan error, 1)
	go func() {
		_, _, err := NewClient(addr).Run(fakeDecomposition(1, 1), sched.DefaultOptions())
		ran <- err
	}()
	waitFor(t, "a client to connect", func() bool { return co.Snapshot().Clients == 1 })

	start := time.Now()
	co.Close()
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Close took %v", d)
	}
	if err := <-ran; err == nil {
		t.Fatal("the client's run succeeded on a closed coordinator")
	}
}

// TestCoordinatorForgetsFinishedWork pins the coordinator's memory to the
// work in flight. A daemon's lifetime of jobs — sequential ones, two racing
// on the same keys (waiters), one whose client vanishes mid-job with a lease
// out, one that fails while its client is still announcing fragments — must
// leave no task, waiter, in-flight key or job record behind, while the
// snapshot's done-task counter keeps counting.
func TestCoordinatorForgetsFinishedWork(t *testing.T) {
	co, addr := testCoordinator(t, CoordConfig{})
	failing := constants.Element(0xEE) // a species the fake engine refuses
	startTestWorker(t, WorkerConfig{
		Addr: addr, Name: "w0", Slots: 2, Throttle: 20 * time.Millisecond,
		Process: func(f *fragment.Fragment, opt sched.Options) (*hessian.FragmentData, error) {
			if f.Els[0] == failing {
				return nil, errors.New("engine: unknown species")
			}
			return fakeEngine(f, opt)
		},
	})
	waitForWorkers(t, co, 1)

	// Sequential jobs, each with shapes the coordinator has not seen yet and
	// shapes it has (coord-tier hits retire at admission).
	wantDone := 0
	for j := 0; j < 3; j++ {
		_, rep, err := NewClient(addr).Run(fakeDecomposition(3+2*j, 2), sched.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantDone += rep.NumTasks
	}
	// Two clients racing on the same unseen keys: one's tasks park as waiters.
	racing := fakeDecomposition(12, 1)
	racing.Fragments = racing.Fragments[7:]
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := NewClient(addr).Run(racing, sched.DefaultOptions()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	wantDone += 2 * len(racing.Fragments)

	jobOpt := sched.DefaultOptions().Job
	sendFrag := func(tr *transport, idx int, f fragment.Fragment) {
		t.Helper()
		key, _ := store.Fingerprint(&f, jobOpt)
		if err := tr.write(MsgFrag, Frag{Job: 1, Frag: uint32(idx), Key: key, Els: f.Els, Pos: f.Pos}.encode()); err != nil {
			t.Fatal(err)
		}
	}
	submit := func(name string, nfrags uint32, frags ...fragment.Fragment) *transport {
		t.Helper()
		tr, _, err := handshake(addr, Hello{Role: RoleClient, Proto: ProtoVersion, Name: name}, time.Second, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.write(MsgJob, Job{Job: 1, NFrags: nfrags, Opt: jobOpt}.encode()); err != nil {
			t.Fatal(err)
		}
		for i, f := range frags {
			sendFrag(tr, i, f)
		}
		return tr
	}
	fresh := fakeDecomposition(20, 1).Fragments

	// A client that announces three fragments, submits two, and is gone while
	// the worker still holds a lease for it.
	gone := submit("gone", 3, fresh[15], fresh[16])
	waitFor(t, "a lease for the vanishing client", func() bool { return co.Snapshot().TasksLeased > 0 })
	gone.close()

	// A job whose first fragment fails for good while two are still to be
	// announced: the late FRAGs are discarded, the connection stays usable.
	bad := fresh[17]
	bad.Els = []constants.Element{failing, constants.H, constants.H}
	doomed := submit("doomed", 3, bad)
	defer doomed.close()
	f, err := doomed.read()
	if err != nil || f.Type != MsgJobDone {
		t.Fatalf("failed job: got %v, %v; want JOB_DONE", f.Type, err)
	}
	if jd, err := decodeJobDone(f.Payload); err != nil || jd.Err == "" {
		t.Fatalf("failed job: JOB_DONE %+v, %v; want an error", jd, err)
	}
	sendFrag(doomed, 1, fresh[18])
	sendFrag(doomed, 2, fresh[19])
	if err := doomed.write(MsgStats, nil); err != nil {
		t.Fatal(err)
	}
	if f, err := doomed.read(); err != nil || f.Type != MsgStatsOK {
		t.Fatalf("after the late FRAGs of a failed job: got %v, %v; want STATS_OK", f.Type, err)
	}

	waitFor(t, "the coordinator to go idle", func() bool {
		s := co.Snapshot()
		return s.Clients == 1 && s.Workers[0].Inflight == 0
	})
	co.mu.Lock()
	tasks, waiters, inflight, jobs := len(co.tasks), len(co.waiters), len(co.inflight), 0
	for _, cl := range co.clients {
		jobs += len(cl.jobs)
	}
	co.mu.Unlock()
	if tasks != 0 || waiters != 0 || inflight != 0 || jobs != 0 {
		t.Fatalf("idle coordinator still holds %d tasks, %d waiter lists, %d in-flight keys, %d job records",
			tasks, waiters, inflight, jobs)
	}
	s := co.Snapshot()
	if s.TasksPending+s.TasksLeased+s.TasksWaiting != 0 {
		t.Fatalf("idle coordinator reports live tasks: %+v", s)
	}
	// The vanished client's two tasks may or may not have completed before it
	// left; everything else is counted exactly.
	if s.TasksDone < wantDone || s.TasksDone > wantDone+2 {
		t.Fatalf("snapshot counts %d done tasks, want %d to %d", s.TasksDone, wantDone, wantDone+2)
	}
	if s.JobsDone != 5 || s.JobsFailed != 1 {
		t.Fatalf("job accounting: %+v", s)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
