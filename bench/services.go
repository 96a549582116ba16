package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qframan/internal/cluster"
	"qframan/internal/core"
	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/raman"
	"qframan/internal/sched"
	"qframan/internal/serve"
	"qframan/internal/store"
	"qframan/internal/structure"
	"qframan/internal/traj"
)

// The three workloads that run the pipeline behind a long-lived engine or
// service: the trajectory engine, the HTTP daemon, and the loopback cluster.

// ---- traj-warm ----

// trajInst drives one traj.Engine along a fixed-schedule random walk. Frame
// 0 is set-up (and the warm-up); a repetition is trajFramesPerCycle warm
// frames, and its per-spectrum latency is that cycle's warm wall divided by
// the frames delivered.
type trajInst struct {
	tr    *tracer
	cfg   core.Config
	base  *structure.System
	store *store.Store
	eng   *traj.Engine
	walk  *walk
	ref   *raman.Spectrum
	busy  atomic.Int64
	cur   atomic.Int64 // span the Process wrapper's fragment spans hang under
	// seen holds every content key the trajectory has produced so far: a
	// frame must recompute its distinct unseen keys, and nothing else.
	// Fewer is a failure (something stale was served). More is wasted work,
	// not a wrong answer, and does happen about once in a few thousand
	// frames (see README, "A finding"), so extra counts it instead of
	// failing the run.
	seen  map[store.Key]bool
	extra int
}

func setupTrajWarm(e *env) (instance, error) {
	base, err := genWaterBox(resumeN, resumeN, resumeN, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("traj-store")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	t := &trajInst{tr: e.tr, cfg: baseConfig(), base: base, store: st, seen: map[store.Key]bool{}}
	t.cfg.Sched.Cache = sched.CacheOptions{Store: st}
	if t.tr != nil {
		t.cfg.Sched.Process = timedProcess(t.tr, func() int { return int(t.cur.Load()) }, &t.busy)
	}
	t.eng = traj.New(traj.Options{Core: t.cfg, WarmStart: true})
	t.walk = newWalk(base, trajMovedPerFrame, trajFramesPerCycle, e.seed)
	d := t.step("frame 0", base, nil)
	if d.err != nil {
		st.Close()
		return nil, fmt.Errorf("frame 0: %w", d.err)
	}
	t.ref = d.spec
	return t, nil
}

// newKeys counts the distinct content keys of sys that no earlier frame
// produced, and marks them seen.
func (t *trajInst) newKeys(sys *structure.System) (int, error) {
	dec, err := fragment.Decompose(sys, t.cfg.Fragment)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range dec.Fragments {
		k, _ := store.Fingerprint(&dec.Fragments[i], t.cfg.Sched.Job)
		if !t.seen[k] {
			t.seen[k] = true
			n++
		}
	}
	return n, nil
}

// step feeds one frame to the engine and checks the recompute invariant.
func (t *trajInst) step(label string, sys *structure.System, acc *layerAcc) delivery {
	expect, err := t.newKeys(sys)
	if err != nil {
		return delivery{label: label, err: err}
	}
	id := t.tr.begin(0, "traj.step")
	t.cur.Store(int64(id))
	t.busy.Store(0)
	t0 := time.Now()
	res, err := t.eng.Step(sys)
	wall := time.Since(t0).Seconds()
	t.tr.end(id)
	d := delivery{label: label, seconds: wall, err: err}
	if err != nil {
		return d
	}
	d.spec = res.Spectrum
	r := res.Report
	switch {
	case r.Degraded:
		d.err = fmt.Errorf("degraded frame: fragments %v failed", r.Failed)
	case r.Recomputed < expect:
		d.err = fmt.Errorf("recomputed %d fragments, frame has %d new content keys", r.Recomputed, expect)
	}
	t.extra += r.Recomputed - expect
	acc.add("traj.extra_recomputes", float64(r.Recomputed-expect))
	acc.add("sched.run_s", wall)
	acc.add("sched.busy_s", time.Duration(t.busy.Load()).Seconds())
	acc.add("fragment.count", float64(r.Fragments))
	acc.add("traj.reused", float64(r.Reused))
	acc.add("traj.rotated", float64(r.Rotated))
	acc.add("traj.recomputed", float64(r.Recomputed))
	acc.add("traj.warm_started", float64(r.WarmStarted))
	acc.add("traj.ref_iters", float64(r.RefIters))
	acc.add("cache.hits", float64(r.CacheHits))
	acc.add("cache.misses", float64(r.Recomputed))
	if s := res.Sched; s != nil {
		acc.add("sched.tasks", float64(s.NumTasks))
		acc.add("sched.retries", float64(s.Retries))
		acc.add("sched.deduped", float64(s.Deduped))
	}
	return d
}

func (t *trajInst) rep(acc *layerAcc) []delivery {
	out := make([]delivery, 0, trajFramesPerCycle)
	var warm float64
	for f := 1; f <= trajFramesPerCycle; f++ {
		sys, err := t.walk.next()
		if err != nil {
			out = append(out, delivery{label: fmt.Sprintf("frame %d", f), err: err})
			continue
		}
		d := t.step(fmt.Sprintf("frame %d", f), sys, acc)
		warm += d.seconds
		out = append(out, d)
	}
	for i := range out {
		out[i].seconds = warm / float64(len(out))
	}
	return out
}

func (t *trajInst) reference() *raman.Spectrum { return t.ref }
func (t *trajInst) nearFloor() float64         { return walkMinCosine }
func (t *trajInst) slots() int                 { return t.cfg.Sched.NumLeaders }

func (t *trajInst) verify(c *checker) {
	if t.extra > 0 {
		c.note("traj-warm: %d fragment(s) recomputed although their content key had been produced before", t.extra)
	}
}
func (t *trajInst) probe() probeInfo {
	return probeInfo{sys: t.base, cfg: t.cfg, store: t.store}
}
func (t *trajInst) close() { t.store.Close() }

// ---- serve-wave ----

// serveInst is a real serve.Server behind net/http on loopback. Each of the
// serveClients closed-loop clients walks its own trajectory of the same
// base box (two users, each following their own dynamics, one shared
// store), submitting every frame as a `text` job and waiting for its
// spectrum before sending the next. A repetition is one wave of
// serveJobsPerClientWave jobs per client.
type serveInst struct {
	tr     *tracer
	cfg    core.Config
	base   *structure.System
	store  *store.Store
	srv    *serve.Server
	hs     *http.Server
	hsDone chan struct{}
	url    string
	client *http.Client
	walks  []*walk
	jobs   []int             // jobs submitted so far, per client
	first  *structure.System // client 0's first submitted frame: the microscope's system
	ref    *raman.Spectrum
	busy   atomic.Int64
	cur    atomic.Int64

	mu       sync.Mutex
	rejected int // HTTP 429/5xx seen
	notDone  int // jobs that ended in a state other than done
}

var serveTenants = []string{"alpha", "beta", "gamma"}

func setupServeWave(e *env) (instance, error) {
	base, err := genWaterBox(serveBoxN, serveBoxN, serveBoxN, e.seed)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("serve-store")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &serveInst{tr: e.tr, cfg: baseConfig(), base: base, store: st,
		client: &http.Client{}, jobs: make([]int, serveClients), hsDone: make(chan struct{})}
	scfg := serve.Config{
		Store:   st,
		Tenants: map[string]int{"alpha": 2, "beta": 1, "gamma": 1},
		Runners: 2,
		Raman:   s.cfg.Raman,
	}
	if s.tr != nil {
		scfg.Process = timedProcess(s.tr, func() int { return int(s.cur.Load()) }, &s.busy)
	}
	s.srv = serve.New(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		st.Close()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.hsDone)
		s.hs.Serve(ln) // returns http.ErrServerClosed at close()
	}()
	s.url = "http://" + ln.Addr().String()
	for c := 0; c < serveClients; c++ {
		// Distinct walk seeds per client, both derived from the run seed.
		s.walks = append(s.walks, newWalk(base, serveMovedPerJob, len(base.Waters)/serveMovedPerJob, e.seed*7919+int64(c)))
	}
	warm := s.wave(serveWarmupPerClient, nil)
	for _, d := range warm {
		if d.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", d.label, d.err)
		}
	}
	s.ref = warm[0].spec
	return s, nil
}

// wave runs perClient jobs on every client concurrently and returns the
// deliveries grouped by client, in submission order.
func (s *serveInst) wave(perClient int, acc *layerAcc) []delivery {
	root := s.tr.begin(0, "serve.wave")
	s.cur.Store(int64(root))
	s.busy.Store(0)
	out := make([]delivery, serveClients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				out[c*perClient+k] = s.job(c, root, acc)
			}
		}(c)
	}
	wg.Wait()
	s.tr.end(root)
	acc.add("sched.busy_s", time.Duration(s.busy.Load()).Seconds())
	return out
}

// job submits client c's next frame and waits for its spectrum.
func (s *serveInst) job(c, parent int, acc *layerAcc) delivery {
	n := s.jobs[c]
	s.jobs[c]++
	d := delivery{label: fmt.Sprintf("client %d job %d", c, n)}
	sys, err := s.walks[c].next()
	if err != nil {
		d.err = err
		return d
	}
	if c == 0 && n == 0 {
		s.first = sys
	}
	text, err := systemText(sys)
	if err != nil {
		d.err = err
		return d
	}
	ro := s.cfg.Raman
	body, err := json.Marshal(serve.SubmitRequest{
		Tenant: serveTenants[(c+n)%len(serveTenants)],
		System: serve.SystemSpec{Kind: "text", Text: text},
		Spectrum: serve.SpectrumSpec{FreqMin: ro.FreqMin, FreqMax: ro.FreqMax, FreqStep: ro.FreqStep,
			Sigma: ro.Sigma, LanczosK: ro.LanczosK},
	})
	if err != nil {
		d.err = err
		return d
	}

	jobSpan := s.tr.begin(parent, "serve.job")
	defer s.tr.end(jobSpan)
	t0 := time.Now()
	sub := s.tr.begin(jobSpan, "serve.submit")
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	rtt := time.Since(t0).Seconds()
	s.tr.end(sub)
	if err != nil {
		d.err = err
		return d
	}
	var sr serve.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
		}
		d.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return d
	}
	if derr != nil {
		d.err = fmt.Errorf("submit reply: %w", derr)
		return d
	}

	poll := s.tr.begin(jobSpan, "serve.poll")
	st, err := s.await(sr.ID)
	s.tr.end(poll)
	d.seconds = time.Since(t0).Seconds()
	if err != nil {
		d.err = err
		return d
	}
	if st.State != serve.JobDone || st.Spectrum == nil {
		s.mu.Lock()
		s.notDone++
		s.mu.Unlock()
		d.err = fmt.Errorf("job ended %s: %s", st.State, st.Error)
		return d
	}
	d.spec = &raman.Spectrum{Freq: st.Spectrum.Freq, Intensity: st.Spectrum.Intensity}
	if st.Report != nil {
		if st.Report.Degraded {
			d.err = fmt.Errorf("degraded job")
		}
		acc.add("fragment.count", float64(st.Report.Fragments))
		acc.add("serve.cross_job_hits", float64(st.Report.CrossJobHits))
		acc.add("sched.retries", float64(st.Report.Retries))
		acc.add("sched.deduped", float64(st.Report.Deduped))
		acc.add("cache.hits", float64(st.Report.CacheHits))
		acc.add("cache.misses", float64(st.Report.CacheMisses))
	}
	acc.add("serve.wait_s", st.WaitSeconds)
	acc.add("serve.run_s", st.RunSeconds)
	acc.add("sched.run_s", st.RunSeconds)
	acc.add("serve.submit_rtt_s", rtt)
	return d
}

// servePollInterval paces the client's status polling; it is the resolution
// of the client-seen latency.
const servePollInterval = 2 * time.Millisecond

// await polls a job until it reaches a terminal state, then fetches the
// status with the spectrum attached.
func (s *serveInst) await(id string) (serve.Status, error) {
	get := func(q string) (serve.Status, error) {
		var st serve.Status
		resp, err := s.client.Get(s.url + "/jobs/" + id + q)
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
		}
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}
	for {
		st, err := get("")
		if err != nil {
			return st, err
		}
		switch st.State {
		case serve.JobDone:
			return get("?spectrum=1")
		case serve.JobFailed, serve.JobCancelled:
			return st, nil
		}
		time.Sleep(servePollInterval)
	}
}

func (s *serveInst) rep(acc *layerAcc) []delivery {
	return s.wave(serveJobsPerClientWave, acc)
}

func (s *serveInst) reference() *raman.Spectrum { return s.ref }
func (s *serveInst) nearFloor() float64         { return walkMinCosine }
func (s *serveInst) slots() int                 { return s.cfg.Sched.NumLeaders }
func (s *serveInst) probe() probeInfo {
	return probeInfo{sys: s.first, cfg: s.cfg, store: s.store}
}

func (s *serveInst) verify(c *checker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.invariant(s.rejected == 0, "serve-wave: %d submissions were refused (HTTP 429/5xx)", s.rejected)
	c.invariant(s.notDone == 0, "serve-wave: %d jobs did not end in state done", s.notDone)
}

func (s *serveInst) close() {
	s.hs.Close()
	<-s.hsDone
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.store.Close()
}

// ---- cluster-loop ----

// clusterInst sends the wb-gamma system through cluster.NewClient to a
// loopback coordinator with two workers (1 slot × 1 thread each). Every
// repetition starts a fresh cluster on cold stores — outside the timed
// section — so no repetition is served from a cache tier.
type clusterInst struct {
	tr  *tracer
	e   *env
	sys *structure.System
	cfg core.Config
	ref *raman.Spectrum
	// golden is the same system computed in-process against a store: the
	// cluster serves canonical store records, so its spectrum must carry
	// exactly these bits. inprocS is that run's wall.
	golden  *raman.Spectrum
	inprocS float64
}

const (
	clusterWorkers       = 2
	clusterSlots         = 1
	clusterThreads       = 1
	clusterStartDeadline = 10 * time.Second
	// The coordinator's reaper notices Close only on its tick, a quarter of
	// the heartbeat timeout — 3.75 s at the 15 s default, paid on every
	// per-repetition tear-down. A 2 s timeout (0.5 s tick, workers beating
	// every 0.5 s) keeps tear-down short without touching the dispatch path.
	clusterHeartbeatTimeout  = 2 * time.Second
	clusterHeartbeatInterval = 500 * time.Millisecond
)

func setupClusterLoop(e *env) (instance, error) {
	sys, err := genWaterBox(wbNX, wbNY, wbNZ, e.seed)
	if err != nil {
		return nil, err
	}
	c := &clusterInst{tr: e.tr, e: e, sys: sys, cfg: baseConfig()}
	dir, err := e.tempDir("cluster-golden")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	gcfg := c.cfg
	gcfg.Sched.Cache = sched.CacheOptions{Store: st}
	t0 := time.Now()
	res, err := core.ComputeRaman(sys, gcfg)
	c.inprocS = time.Since(t0).Seconds()
	st.Close()
	if err != nil {
		return nil, fmt.Errorf("in-process golden run: %w", err)
	}
	c.golden = res.Spectrum
	d := c.rep(nil)[0]
	if d.err != nil {
		return nil, fmt.Errorf("warm-up: %w", d.err)
	}
	c.ref = d.spec
	return c, nil
}

// loopback is one running coordinator + workers.
type loopback struct {
	co     *cluster.Coordinator
	reg    *obs.Registry
	addr   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	stores []*store.Store
}

func (c *clusterInst) start(busy *atomic.Int64, parent func() int) (*loopback, error) {
	lb := &loopback{reg: obs.NewRegistry()}
	open := func(name string) (*store.Store, error) {
		dir, err := c.e.tempDir(name)
		if err != nil {
			return nil, err
		}
		st, err := store.Open(dir)
		if err == nil {
			lb.stores = append(lb.stores, st)
		}
		return st, err
	}
	cst, err := open("coord")
	if err != nil {
		return nil, err
	}
	lb.co = cluster.NewCoordinator(cluster.CoordConfig{Store: cst, Registry: lb.reg,
		HeartbeatTimeout: clusterHeartbeatTimeout})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lb.stop()
		return nil, err
	}
	lb.addr = ln.Addr().String()
	lb.wg.Add(1)
	go func() {
		defer lb.wg.Done()
		lb.co.Serve(ln) // returns nil at Close
	}()
	ctx, cancel := context.WithCancel(context.Background())
	lb.cancel = cancel
	for i := 0; i < clusterWorkers; i++ {
		wst, err := open(fmt.Sprintf("worker%d", i))
		if err != nil {
			lb.stop()
			return nil, err
		}
		wc := cluster.WorkerConfig{
			Addr: lb.addr, Name: fmt.Sprintf("bench-%d", i),
			Slots: clusterSlots, Threads: clusterThreads, Store: wst,
			HeartbeatInterval: clusterHeartbeatInterval,
		}
		if c.tr != nil {
			wc.Process = timedProcess(c.tr, parent, busy)
		}
		w := cluster.NewWorker(wc)
		lb.wg.Add(1)
		go func() {
			defer lb.wg.Done()
			w.Run(ctx) // returns ctx.Err() at stop
		}()
	}
	// A job submitted before the workers have registered would simply wait
	// for them; waiting here keeps that out of the timed section.
	deadline := time.Now().Add(clusterStartDeadline)
	for len(lb.co.Snapshot().Workers) < clusterWorkers {
		if time.Now().After(deadline) {
			lb.stop()
			return nil, fmt.Errorf("cluster: workers did not register within %s", clusterStartDeadline)
		}
		time.Sleep(time.Millisecond)
	}
	return lb, nil
}

func (lb *loopback) stop() {
	if lb.cancel != nil {
		lb.cancel()
	}
	if lb.co != nil {
		lb.co.Close()
	}
	lb.wg.Wait()
	for _, st := range lb.stores {
		st.Close()
	}
}

func (c *clusterInst) rep(acc *layerAcc) []delivery {
	d := delivery{label: "rep"}
	var busy atomic.Int64
	var cur atomic.Int64
	lb, err := c.start(&busy, func() int { return int(cur.Load()) })
	if err != nil {
		d.err = err
		return []delivery{d}
	}
	defer lb.stop()

	cfg := c.cfg
	cfg.Sched.Backend = cluster.NewClient(lb.addr)
	root := c.tr.begin(0, "cluster.job")
	cur.Store(int64(root))
	t0 := time.Now()
	res, err := computeRaman(c.sys, cfg, c.tr, root, acc)
	d.seconds = time.Since(t0).Seconds()
	c.tr.end(root)
	if err != nil {
		d.err = err
		return []delivery{d}
	}
	d.spec = res.Spectrum
	if c.golden != nil && !bitEqual(d.spec, c.golden) {
		d.err = fmt.Errorf("cluster spectrum %s differs from the in-process store run %s",
			spectrumHash(d.spec)[:12], spectrumHash(c.golden)[:12])
	}
	snap := lb.co.Snapshot()
	acc.add("sched.busy_s", time.Duration(busy.Load()).Seconds())
	acc.add("cluster.rpc_bytes_in", float64(lb.reg.Counter(obs.MetricClusterBytesIn).Value()))
	acc.add("cluster.rpc_bytes_out", float64(lb.reg.Counter(obs.MetricClusterBytesOut).Value()))
	acc.add("cluster.tier_hits", float64(snap.TierCoord+snap.TierLocal+snap.TierFetch))
	acc.add("cluster.recomputes", float64(snap.Recomputes))
	acc.add("cluster.reassigns", float64(snap.Reassigns))
	acc.add("cluster.overhead_s", d.seconds-c.inprocS)
	return []delivery{d}
}

func (c *clusterInst) reference() *raman.Spectrum { return c.ref }
func (c *clusterInst) nearFloor() float64         { return refMinCosine }
func (c *clusterInst) verify(*checker)            {}
func (c *clusterInst) slots() int                 { return clusterWorkers * clusterSlots }
func (c *clusterInst) probe() probeInfo           { return probeInfo{sys: c.sys, cfg: c.cfg} }
func (c *clusterInst) close()                     {}
