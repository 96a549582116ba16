package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"qframan/internal/fragment"
	"qframan/internal/obs"
	"qframan/internal/sched"
	"qframan/internal/store"
)

// Client is the sched.Backend that resolves a run's content classes on a
// coordinator: it submits each class's representative and hands back the
// canonical records the coordinator serves, with the tier each came from.
// sched.Run classifies before it and expands each record to every member as
// it arrives, as for its own leaders, so the assembled spectrum is
// bit-identical to a single-process run.
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

// Run implements sched.Backend: one submission per content class, one
// SERVE back per class. A record served by a cache tier is sched.Stored, one
// a worker computed is sched.Computed; the coordinator's reassignments of
// this job's leases are the requeues.
func (c *Client) Run(dec *fragment.Decomposition, cls *store.Classes, opt sched.Options, resolve sched.Resolve) (int, error) {
	reps := cls.Reps
	if len(reps) == 0 {
		return 0, nil
	}
	_, runSpan := opt.Obs.Begin("cluster.run", "sched", obs.A("frags", int64(len(dec.Fragments))))
	defer runSpan.End()
	class := make(map[int]int, len(reps)) // representative → class index
	for ci, r := range reps {
		class[r] = ci
	}

	hb := c.HeartbeatInterval
	if hb <= 0 {
		hb = 3 * time.Second
	}
	tr, _, err := handshake(c.Addr, Hello{Role: RoleClient, Proto: ProtoVersion, Name: c.Name},
		c.DialTimeout, c.MaxPayload, opt.Obs.R)
	if err != nil {
		return 0, fmt.Errorf("cluster: connect %s: %w", c.Addr, err)
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
	if err := tr.write(MsgJob, Job{Job: jobID, NFrags: uint32(len(reps)), Opt: opt.Job}.encode()); err != nil {
		return 0, fmt.Errorf("cluster: submit job: %w", err)
	}
	for _, i := range reps {
		f := &dec.Fragments[i]
		if err := tr.write(MsgFrag, Frag{
			Job: jobID, Frag: uint32(i), Key: cls.Keys[i], Els: f.Els, Pos: f.Pos,
		}.encode()); err != nil {
			return 0, fmt.Errorf("cluster: submit fragment %d: %w", i, err)
		}
	}

	received := 0
	gotDone := false
	var jd JobDone
	for received < len(reps) || !gotDone {
		f, err := tr.read()
		if err != nil {
			select {
			case <-cancelled:
				return 0, fmt.Errorf("cluster: %w", sched.ErrCancelled)
			default:
			}
			return 0, fmt.Errorf("cluster: coordinator connection: %w", err)
		}
		switch f.Type {
		case MsgServe:
			sv, err := decodeServe(f.Payload)
			if err != nil {
				return 0, err
			}
			ci, ok := class[int(sv.Frag)]
			if !ok {
				return 0, fmt.Errorf("%w: SERVE for unknown fragment %d", ErrProtocol, sv.Frag)
			}
			delete(class, int(sv.Frag)) // a second SERVE for it is unknown
			src := sched.Stored
			if sv.Tier == TierCompute {
				src = sched.Computed
			}
			canon, err := store.Decode(sv.Blob)
			if err == nil {
				err = resolve(ci, canon, src)
			}
			if err != nil {
				return 0, fmt.Errorf("cluster: fragment %d result: %w", sv.Frag, err)
			}
			received++
		case MsgJobDone:
			m, err := decodeJobDone(f.Payload)
			if err != nil {
				return 0, err
			}
			if m.Err != "" {
				return 0, fmt.Errorf("cluster: job failed: %s", m.Err)
			}
			jd, gotDone = m, true
		default:
			return 0, fmt.Errorf("%w: unexpected %s at client", ErrProtocol, f.Type)
		}
	}
	return int(jd.Reassigns), nil
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
