package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/hessian"
	"qframan/internal/obs"
	"qframan/internal/sched"
	"qframan/internal/store"
)

// Client is the sched.Backend that fans a run's fragments out to a
// coordinator: it submits the representative of each content class
// (store.Classify — the same table the in-process runtime schedules from)
// and expands each canonical result to all class members via their own
// rigid frames — so the assembled spectrum is bit-identical to a
// single-process run, with or without a store.
type Client struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name identifies the client in coordinator logs.
	Name string
	// DialTimeout bounds the connection attempt (default 5 s).
	DialTimeout time.Duration
	// HeartbeatInterval paces liveness beacons toward the coordinator
	// (default 3 s).
	HeartbeatInterval time.Duration
	// MaxPayload bounds inbound frame payloads (0 = DefaultMaxPayload).
	MaxPayload int
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// NewClient returns a cluster dispatch backend for a coordinator address.
func NewClient(addr string) *Client { return &Client{Addr: addr} }

// Run implements sched.Backend.
func (c *Client) Run(dec *fragment.Decomposition, opt sched.Options) ([]*hessian.FragmentData, *sched.Report, error) {
	start := time.Now()
	nf := len(dec.Fragments)
	if nf == 0 {
		return nil, &sched.Report{}, nil
	}
	_, runSpan := opt.Obs.Begin("cluster.run", "sched", obs.A("frags", int64(nf)))
	defer runSpan.End()

	// One submission per content class: the representative travels, and its
	// canonical result fills every member (DESIGN.md, "Content classes").
	cls := store.Classify(dec.Fragments, opt.Job)
	keys, frames, producers := cls.Keys, cls.Frames, cls.Reps

	hb := c.HeartbeatInterval
	if hb <= 0 {
		hb = 3 * time.Second
	}
	var reg *obs.Registry
	if opt.Obs.R != nil {
		reg = opt.Obs.R
	}
	tr, _, err := handshake(c.Addr, Hello{Role: RoleClient, Proto: ProtoVersion, Name: c.Name},
		c.DialTimeout, c.MaxPayload, reg)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: connect %s: %w", c.Addr, err)
	}
	done := make(chan struct{})
	defer func() {
		close(done)
		tr.close()
	}()

	// Heartbeats and cancellation: closing the conn unblocks the read
	// loop below, which then reports ErrCancelled.
	cancelled := make(chan struct{}, 1)
	go func() {
		ticker := time.NewTicker(hb)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-optCancel(opt.Cancel):
				cancelled <- struct{}{}
				tr.write(MsgBye, nil)
				tr.close()
				return
			case <-ticker.C:
				if err := tr.write(MsgHeartbeat, nil); err != nil {
					return
				}
			}
		}
	}()

	const jobID = 1
	if err := tr.write(MsgJob, Job{Job: jobID, NFrags: uint32(len(producers)), Opt: opt.Job}.encode()); err != nil {
		return nil, nil, fmt.Errorf("cluster: submit job: %w", err)
	}
	for _, i := range producers {
		f := &dec.Fragments[i]
		if err := tr.write(MsgFrag, Frag{
			Job: jobID, Frag: uint32(i), Key: keys[i], Els: f.Els, Pos: f.Pos,
		}.encode()); err != nil {
			return nil, nil, fmt.Errorf("cluster: submit fragment %d: %w", i, err)
		}
	}

	results := make([]*hessian.FragmentData, nf)
	rep := &sched.Report{NumTasks: len(producers)}
	received := 0
	gotDone := false
	var jd JobDone
	for received < len(producers) || !gotDone {
		f, err := tr.read()
		if err != nil {
			select {
			case <-cancelled:
				return nil, nil, fmt.Errorf("cluster: %w", sched.ErrCancelled)
			default:
			}
			return nil, nil, fmt.Errorf("cluster: coordinator connection: %w", err)
		}
		switch f.Type {
		case MsgServe:
			sv, err := decodeServe(f.Payload)
			if err != nil {
				return nil, nil, err
			}
			i := int(sv.Frag)
			if i < 0 || i >= nf || cls.Members[i] == nil || results[i] != nil {
				return nil, nil, fmt.Errorf("%w: SERVE for unknown fragment %d", ErrProtocol, i)
			}
			canon, err := store.Decode(sv.Blob)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster: fragment %d result: %w", i, err)
			}
			// Expand the canonical result to every member of the class
			// through its own rigid frame — exactly the store's Get
			// path, so bits match the single-process run.
			for _, m := range cls.Members[i] {
				results[m], err = frames[m].FromCanonical(canon)
				if err != nil {
					return nil, nil, fmt.Errorf("cluster: fragment %d result: %w", m, err)
				}
			}
			received++
		case MsgJobDone:
			m, err := decodeJobDone(f.Payload)
			if err != nil {
				return nil, nil, err
			}
			if m.Err != "" {
				return nil, nil, fmt.Errorf("cluster: job failed: %s", m.Err)
			}
			jd, gotDone = m, true
		default:
			return nil, nil, fmt.Errorf("%w: unexpected %s at client", ErrProtocol, f.Type)
		}
	}

	// Map the coordinator's per-tier accounting onto the scheduler
	// report: recomputed fragments are cache misses; tier hits are
	// resume-equivalent (work inherited from the cluster's stores);
	// within-run rigid copies are dedup.
	tierHits := int(jd.LocalHits + jd.CoordHits)
	rep.CacheMisses = int(jd.Computed)
	rep.Resumed = tierHits
	rep.Deduped = nf - len(producers)
	rep.CacheHits = rep.Resumed + rep.Deduped
	rep.Requeues = int(jd.Reassigns)
	rep.Elapsed = time.Since(start)
	return results, rep, nil
}

// FetchStats connects to a coordinator as a client, requests its STATS
// snapshot, and returns it decoded.
func FetchStats(addr string, timeout time.Duration) (Snapshot, error) {
	tr, _, err := handshake(addr, Hello{Role: RoleClient, Proto: ProtoVersion, Name: "qfstats"},
		timeout, 0, nil)
	if err != nil {
		return Snapshot{}, err
	}
	defer tr.close()
	if err := tr.write(MsgStats, nil); err != nil {
		return Snapshot{}, err
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	tr.setReadDeadline(time.Now().Add(timeout))
	f, err := tr.read()
	if err != nil {
		return Snapshot{}, err
	}
	if f.Type != MsgStatsOK {
		return Snapshot{}, fmt.Errorf("%w: %s in reply to STATS", ErrProtocol, f.Type)
	}
	var s Snapshot
	if err := json.Unmarshal(f.Payload, &s); err != nil {
		return Snapshot{}, fmt.Errorf("cluster: stats payload: %w", err)
	}
	tr.write(MsgBye, nil)
	return s, nil
}

// optCancel turns a possibly-nil cancel channel into a never-firing one.
func optCancel(ch <-chan struct{}) <-chan struct{} {
	if ch != nil {
		return ch
	}
	return neverChan
}

var neverChan = make(chan struct{})
